"""STAR-RIS aided ISAC secure-communication simulator and RL optimizers.

Names are imported from their own modules; the package exports nothing."""
