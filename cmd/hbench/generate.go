package main

// One command regenerates every committed BENCH_*.json report, from the
// repository root:
//
//	go generate ./cmd/hbench
//
// It builds hbench once, because a built binary carries the VCS stamp the
// reports' provenance records (go run leaves the revision "unknown"), and
// writes the three reports to the repository root. Each report is written
// to a temporary file and moved into place only when its mode succeeds, so
// a failing mode leaves the committed report as it was.

//go:generate go build -o ../../hbench .
//go:generate sh -c "../../hbench -cache-bench -target webservice > ../../BENCH_eval_cache.json.tmp && mv ../../BENCH_eval_cache.json.tmp ../../BENCH_eval_cache.json"
//go:generate sh -c "../../hbench -fidelity-bench > ../../BENCH_fidelity.json.tmp && mv ../../BENCH_fidelity.json.tmp ../../BENCH_fidelity.json"
//go:generate sh -c "../../hbench -drift-bench > ../../BENCH_drift.json.tmp && mv ../../BENCH_drift.json.tmp ../../BENCH_drift.json"
