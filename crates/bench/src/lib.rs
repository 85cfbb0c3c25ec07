//! Criterion kernel benches and ablations, in `benches/`. End-to-end
//! timings, the full report's compute and render and each figure's
//! analysis are the repository benchmark's (`bash benchmark/run.sh`), so
//! the benches here share no study and this library holds no code.
#![forbid(unsafe_code)]
