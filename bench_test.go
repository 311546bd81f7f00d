package allarm_test

// One benchmark per table and figure of the paper. Each bench runs the
// corresponding experiment at a reduced access budget (so `go test
// -bench=.` completes in minutes) and reports the headline series through
// b.ReportMetric; allarm-sim -exp regenerates the full-size tables.
//
// Benchmarks deliberately measure simulated-system metrics, not Go
// wall-clock alone: the unit of work is "one full experiment".

import (
	"context"
	"io"
	"testing"

	allarm "allarm"
)

// benchConfig returns the experiment configuration at bench scale.
func benchConfig() allarm.Config {
	cfg := allarm.ExperimentConfig()
	cfg.AccessesPerThread = 20_000
	return cfg
}

func BenchmarkTable1SystemConfig(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experimentTable(context.Background(), io.Discard, cfg, "table1", allarm.ALLARM, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2LocalRemoteRatio(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		var locals []float64
		for _, name := range allarm.Benchmarks() {
			res, err := allarm.Job{Benchmark: name, Config: cfg}.RunCtx(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			locals = append(locals, res.LocalFraction())
		}
		b.ReportMetric(mean(locals), "localFrac")
	}
}

// pairMetric runs every benchmark pair and reports one Comparison field.
func pairMetric(b *testing.B, metric string) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		pairs := runPairs(b, cfg, allarm.Benchmarks()...)
		var vals []float64
		for _, p := range pairs {
			c := allarm.Compare(p.Base, p.Opt)
			switch metric {
			case "speedup":
				vals = append(vals, c.Speedup)
			case "evictions":
				if c.EvictionRatio > 0 {
					vals = append(vals, c.EvictionRatio)
				}
			case "traffic":
				vals = append(vals, c.TrafficRatio)
			case "l2miss":
				vals = append(vals, c.L2MissRatio)
			case "nocEnergy":
				vals = append(vals, c.NoCEnergyRatio)
			case "pfEnergy":
				vals = append(vals, c.PFEnergyRatio)
			}
		}
		b.ReportMetric(allarm.Geomean(vals), metric+"Geomean")
	}
}

func BenchmarkFig3aSpeedup(b *testing.B)   { pairMetric(b, "speedup") }
func BenchmarkFig3bEvictions(b *testing.B) { pairMetric(b, "evictions") }
func BenchmarkFig3cTraffic(b *testing.B)   { pairMetric(b, "traffic") }

func BenchmarkFig3dMessagesPerEviction(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		pairs := runPairs(b, cfg, allarm.Benchmarks()...)
		var msgs []float64
		for _, p := range pairs {
			if m := p.Base.MessagesPerEviction(); m > 0 {
				msgs = append(msgs, m)
			}
		}
		b.ReportMetric(mean(msgs), "msgsPerEviction")
	}
}

func BenchmarkFig3eL2Misses(b *testing.B) { pairMetric(b, "l2miss") }

func BenchmarkFig3fDynamicEnergy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		pairs := runPairs(b, cfg, allarm.Benchmarks()...)
		var noc, pf []float64
		for _, p := range pairs {
			c := allarm.Compare(p.Base, p.Opt)
			noc = append(noc, c.NoCEnergyRatio)
			pf = append(pf, c.PFEnergyRatio)
		}
		b.ReportMetric(allarm.Geomean(noc), "nocEnergyGeomean")
		b.ReportMetric(allarm.Geomean(pf), "pfEnergyGeomean")
	}
}

func BenchmarkFig3gSnoopHiding(b *testing.B) {
	cfg := benchConfig()
	cfg.Policy = allarm.ALLARM
	for i := 0; i < b.N; i++ {
		var fracs []float64
		for _, name := range allarm.Benchmarks() {
			res, err := allarm.Job{Benchmark: name, Config: cfg}.RunCtx(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			fracs = append(fracs, res.SnoopHiddenFraction())
		}
		b.ReportMetric(mean(fracs), "hiddenFrac")
	}
}

func BenchmarkFig3hPFSizeSweep(b *testing.B) {
	cfg := benchConfig()
	// Sweep the suite's most PF-sensitive benchmark (blackscholes, per
	// the paper) across the three Figure 3h sizes.
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Policy = allarm.Baseline
		ref, err := allarm.Job{Benchmark: "blackscholes", Config: c}.RunCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, div := range []int{1, 2, 4} {
			c := cfg
			c.Policy = allarm.ALLARM
			c.PFBytes = cfg.PFBytes / div
			res, err := allarm.Job{Benchmark: "blackscholes", Config: c}.RunCtx(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if div == 4 {
				b.ReportMetric(ref.RuntimeNs/res.RuntimeNs, "speedupAtQuarterPF")
			}
		}
	}
}

// fig4Bench sweeps PF sizes for the multi-process experiment and reports
// the chosen metric at the smallest size.
func fig4Bench(b *testing.B, policy allarm.Policy, metric string) {
	cfg := benchConfig()
	mp := allarm.DefaultMultiProcess()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Policy = allarm.Baseline
		ref, err := allarm.Job{Benchmark: "ocean-cont", Config: c, MultiProcess: &mp}.RunCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var last float64
		for _, div := range []int{1, 4, 16} {
			c := cfg
			c.Policy = policy
			c.PFBytes = cfg.PFBytes / div
			res, err := allarm.Job{Benchmark: "ocean-cont", Config: c, MultiProcess: &mp}.RunCtx(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			switch metric {
			case "speedup":
				last = ref.RuntimeNs / res.RuntimeNs
			case "evictions":
				last = ratio(res.PFEvictions, ref.PFEvictions)
			case "traffic":
				last = ratio(res.NoCBytes, ref.NoCBytes)
			}
		}
		b.ReportMetric(last, metric+"AtSmallestPF")
	}
}

func BenchmarkFig4aMultiProcessBaselineSpeedup(b *testing.B) {
	fig4Bench(b, allarm.Baseline, "speedup")
}
func BenchmarkFig4bMultiProcessBaselineEvictions(b *testing.B) {
	fig4Bench(b, allarm.Baseline, "evictions")
}
func BenchmarkFig4cMultiProcessBaselineTraffic(b *testing.B) {
	fig4Bench(b, allarm.Baseline, "traffic")
}
func BenchmarkFig4dMultiProcessALLARMSpeedup(b *testing.B) {
	fig4Bench(b, allarm.ALLARM, "speedup")
}
func BenchmarkFig4eMultiProcessALLARMEvictions(b *testing.B) {
	fig4Bench(b, allarm.ALLARM, "evictions")
}
func BenchmarkFig4fMultiProcessALLARMTraffic(b *testing.B) {
	fig4Bench(b, allarm.ALLARM, "traffic")
}

func BenchmarkAreaTablePFArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experimentTable(context.Background(), io.Discard, benchConfig(), "area", allarm.ALLARM, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSerialLocalProbe quantifies §II-D's design choice by
// comparing ALLARM as built (parallel local probe) against the snoop-
// hiding fraction: a serial probe would add the probe's full latency to
// every hidden case.
func BenchmarkAblationSerialLocalProbe(b *testing.B) {
	cfg := benchConfig()
	cfg.Policy = allarm.ALLARM
	for i := 0; i < b.N; i++ {
		res, err := allarm.Job{Benchmark: "ocean-cont", Config: cfg}.RunCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SnoopHiddenFraction(), "latencyHiddenByParallelProbe")
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
