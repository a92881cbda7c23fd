"""Structure-exploiting numerical dual control for exploration and
exploitation, with a vehicle eco-cruising simulation harness."""
