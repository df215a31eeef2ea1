"""Multi-variant FlexRay static-segment schedule synthesis toolkit."""
