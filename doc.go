// Package slurmsight reproduces "An LLM-enabled Workflow for Understanding
// and Evolving HPC Scheduling Practices" (WISDOM @ ICPP 2025) as a
// self-contained Go system: a Slurm accounting data model, a synthetic
// workload generator and scheduler simulator standing in for OLCF's
// proprietary traces, a sacct-style query engine, a dataflow composition
// engine (the Swift/T substitute), SVG/HTML/PNG chart rendering (the
// Plotly and HTML2PNG substitutes), a deterministic multimodal-LLM analyst
// behind a real HTTP API (the Gemma 3 substitute), and the hybrid analysis
// workflow that ties them together.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record. TestPaperReproduction (paper_test.go)
// regenerates every table and figure of the paper's evaluation from what
// the workflow writes and holds them to the golden EXPERIMENTS.md quotes.
package slurmsight
