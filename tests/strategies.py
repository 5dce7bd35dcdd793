"""Hypothesis strategies shared by the locking differential tests."""

from hypothesis import strategies as st

#: every single-kind alphabet plus the full mix
ALPHABETS = [("mux",), ("xor",), ("and_or",), ("mux", "xor", "and_or")]

circuits = st.builds(
    lambda gates, seed: f"rand_{gates}_{seed}",
    st.sampled_from([40, 80, 150]),
    st.integers(0, 40),
)
alphabets = st.sampled_from(ALPHABETS)
