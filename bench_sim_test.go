package allarm_test

// Whole-simulation benchmarks for the simulator itself (as opposed to
// bench_test.go, which benchmarks the paper's experiments). One benchmark
// per policy × workload size over the shared SimBenchMatrix; the unit of
// work (one "op") is a complete simulation, so ns/op and allocs/op are
// per whole run and the reported events/sec is the engine's throughput.
// These are the benchmarks the CI smoke job compiles and runs once, and
// the matrix `allarm-bench -benchjson` measures when regenerating
// BENCH_*.json.

import (
	"context"
	"testing"

	allarm "allarm"
)

func benchSim(b *testing.B, benchmark string, accesses int, pol allarm.Policy) {
	cfg := allarm.ExperimentConfig()
	cfg.Policy = pol
	cfg.AccessesPerThread = accesses
	b.ReportAllocs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := allarm.RunBenchmarkCtx(context.Background(), cfg, benchmark)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)/sec, "events/sec")
	}
}

func BenchmarkSimSmallBaseline(b *testing.B) {
	c := allarm.SimBenchMatrix[0]
	benchSim(b, c.Benchmark, c.Accesses, allarm.Baseline)
}

func BenchmarkSimSmallALLARM(b *testing.B) {
	c := allarm.SimBenchMatrix[0]
	benchSim(b, c.Benchmark, c.Accesses, allarm.ALLARM)
}

func BenchmarkSimLargeBaseline(b *testing.B) {
	c := allarm.SimBenchMatrix[1]
	benchSim(b, c.Benchmark, c.Accesses, allarm.Baseline)
}

func BenchmarkSimLargeALLARM(b *testing.B) {
	c := allarm.SimBenchMatrix[1]
	benchSim(b, c.Benchmark, c.Accesses, allarm.ALLARM)
}
