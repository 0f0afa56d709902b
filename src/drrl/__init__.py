"""Collaborative filtering with a Renyi-divergence robust softmax loss
family, plus a brute-force certification suite for its dual reductions."""
