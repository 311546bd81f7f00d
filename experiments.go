package allarm

import (
	"fmt"
	"io"
	"sort"

	"allarm/internal/energy"
	"allarm/internal/stats"
)

// Experiment identifiers accepted by ExperimentSweep and
// RenderExperiment (one per table/figure of the paper).
var ExperimentIDs = []string{
	"table1",
	"fig2",
	"fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig3g", "fig3h",
	"fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f",
	"area",
}

// pairResults is the per-benchmark baseline/optimised pair of a sweep.
type pairResults struct {
	Benchmark string
	Base, Opt *Result
}

// pairsSweep is the spec behind Figure 3: every benchmark under the
// baseline and opt, baseline first.
func pairsSweep(cfg Config, opt Policy) *Sweep {
	return NewSweep(Job{Config: cfg}).
		CrossBenchmarks(Benchmarks()...).
		CrossPolicies(Baseline, opt)
}

// pairsOf folds pairsSweep results (benchmark-major, baseline first)
// into per-benchmark pairs, failing on the first job error in spec
// order.
func pairsOf(results []SweepResult) ([]pairResults, error) {
	if err := FirstError(results); err != nil {
		return nil, err
	}
	out := make([]pairResults, 0, len(results)/2)
	for i := 0; i+1 < len(results); i += 2 {
		out = append(out, pairResults{
			Benchmark: results[i].Job.Benchmark,
			Base:      results[i].Result,
			Opt:       results[i+1].Result,
		})
	}
	return out, nil
}

// ExperimentSweep returns the declarative job spec behind one of the
// paper's tables or figures: the exact simulations the experiment needs,
// in the order RenderExperiment consumes them. opt is the optimised
// policy evaluated against the baseline; ALLARM reproduces the paper
// exactly, and any registered policy can be read off the same figures.
// "table1" and "area" run no simulations and return an empty sweep.
// Unknown ids return an error listing the valid ones.
func ExperimentSweep(cfg Config, id string, opt Policy) (*Sweep, error) {
	switch id {
	case "table1", "area":
		return NewSweep(), nil
	case "fig2":
		c := cfg
		c.Policy = Baseline
		return NewSweep(Job{Config: c}).CrossBenchmarks(Benchmarks()...), nil
	case "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig3g":
		return pairsSweep(cfg, opt), nil
	case "fig3h":
		// Per benchmark: the full-size baseline reference, then the
		// optimised policy at each Figure 3h probe-filter size.
		s := NewSweep()
		for _, b := range Benchmarks() {
			ref := cfg
			ref.Policy = Baseline
			s.Add(Job{Benchmark: b, Config: ref})
			for _, div := range fig3hSizes {
				c := cfg
				c.Policy = opt
				c.PFBytes = cfg.PFBytes / div
				s.Add(Job{Benchmark: b, Config: c})
			}
		}
		return s, nil
	case "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f":
		policy := fig4Policy(id, opt)
		// Per benchmark: the panel's policy at each Figure 4 probe-filter
		// size, normalised to the full-size baseline. For the baseline
		// panels that reference IS the first grid point, so no extra
		// reference job is needed; the ALLARM panels prepend it.
		mp := DefaultMultiProcess()
		s := NewSweep()
		for _, b := range MultiProcessBenchmarks() {
			if policy != Baseline {
				ref := cfg
				ref.Policy = Baseline
				s.Add(Job{Benchmark: b, Config: ref, MultiProcess: &mp})
			}
			for _, div := range fig4Divisors {
				c := cfg
				c.Policy = policy
				c.PFBytes = cfg.PFBytes / div
				s.Add(Job{Benchmark: b, Config: c, MultiProcess: &mp})
			}
		}
		return s, nil
	default:
		ids := make([]string, len(ExperimentIDs))
		copy(ids, ExperimentIDs)
		sort.Strings(ids)
		return nil, fmt.Errorf("allarm: unknown experiment %q (have %v)", id, ids)
	}
}

// RenderExperiment writes the series the paper plots for experiment
// id, normalised as the paper normalises them. results must hold the
// completed jobs of ExperimentSweep(cfg, id, opt), in its spec order.
func RenderExperiment(w io.Writer, cfg Config, id string, opt Policy, results []SweepResult) error {
	switch id {
	case "table1":
		return renderTable1(w, cfg)
	case "fig2":
		return renderFig2(w, results)
	case "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig3g":
		pairs, err := pairsOf(results)
		if err != nil {
			return err
		}
		return renderFig3(w, pairs, id)
	case "fig3h":
		return renderFig3h(w, cfg, results)
	case "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f":
		return renderFig4(w, cfg, id, opt, results)
	case "area":
		return renderArea(w)
	}
	return fmt.Errorf("allarm: unknown experiment %q", id)
}

// renderTable1 prints the simulated-system parameters (Table I), both
// the paper's values (DefaultConfig) and the harness scale actually
// used. It consumes no simulation results.
func renderTable1(w io.Writer, cfg Config) error {
	t := stats.NewTable("Parameter", "Table I", "This run")
	d := DefaultConfig()
	row := func(name, paper, run string) { t.AddRow(name, paper, run) }
	row("Cores", fmt.Sprint(d.Nodes), fmt.Sprint(cfg.Nodes))
	row("Block size", "64 bytes", "64 bytes")
	row("L1 DCache", fmt.Sprintf("%dkB %d-way", d.L1Bytes>>10, d.L1Ways), fmt.Sprintf("%dkB %d-way", cfg.L1Bytes>>10, cfg.L1Ways))
	row("L2 Cache", fmt.Sprintf("%dkB %d-way (exclusive)", d.L2Bytes>>10, d.L2Ways), fmt.Sprintf("%dkB %d-way (exclusive)", cfg.L2Bytes>>10, cfg.L2Ways))
	row("Directory coverage", fmt.Sprintf("%dkB cached data", d.PFBytes>>10), fmt.Sprintf("%dkB cached data", cfg.PFBytes>>10))
	row("Cache/dir latency", fmt.Sprintf("%gns/%gns", d.CacheNs, d.DirNs), fmt.Sprintf("%gns/%gns", cfg.CacheNs, cfg.DirNs))
	row("Memory", fmt.Sprintf("%d x %dMB, %gns", d.Nodes, d.MemMiBPerNode, d.DRAMNs), fmt.Sprintf("%d x %dMB, %gns", cfg.Nodes, cfg.MemMiBPerNode, cfg.DRAMNs))
	row("Topology", fmt.Sprintf("%dx%d mesh", d.MeshW, d.MeshH), fmt.Sprintf("%dx%d mesh", cfg.MeshW, cfg.MeshH))
	row("Flit size", fmt.Sprintf("%d bytes", d.FlitBytes), fmt.Sprintf("%d bytes", cfg.FlitBytes))
	row("Control/Data msg", fmt.Sprintf("%d/%d bytes", d.CtrlMsgBytes, d.DataMsgBytes), fmt.Sprintf("%d/%d bytes", cfg.CtrlMsgBytes, cfg.DataMsgBytes))
	row("Link BW/latency", fmt.Sprintf("%g GB/s, %gns", d.LinkBytesPerNs, d.LinkNs), fmt.Sprintf("%g GB/s, %gns", cfg.LinkBytesPerNs, cfg.LinkNs))
	_, err := fmt.Fprint(w, t.String())
	return err
}

// renderFig2 prints the local/remote directory-request split per
// benchmark from one baseline run each.
func renderFig2(w io.Writer, results []SweepResult) error {
	t := stats.NewTable("Benchmark", "Local", "Remote")
	for _, r := range results {
		lf := r.Result.LocalFraction()
		t.AddRow(r.Job.Benchmark, fmt.Sprintf("%.3f", lf), fmt.Sprintf("%.3f", 1-lf))
	}
	_, err := fmt.Fprint(w, t.String())
	return err
}

// renderFig3 prints one of the Figure 3 per-benchmark bar charts.
func renderFig3(w io.Writer, pairs []pairResults, id string) error {
	switch id {
	case "fig3a", "fig3b", "fig3c", "fig3e":
		name := map[string]string{
			"fig3a": "Speedup", "fig3b": "Norm. PF evictions",
			"fig3c": "Norm. NoC traffic", "fig3e": "Norm. L2 misses",
		}[id]
		t := stats.NewTable("Benchmark", name)
		var vals []float64
		for _, p := range pairs {
			c := Compare(p.Base, p.Opt)
			v := map[string]float64{
				"fig3a": c.Speedup, "fig3b": c.EvictionRatio,
				"fig3c": c.TrafficRatio, "fig3e": c.L2MissRatio,
			}[id]
			// A benchmark whose ALLARM run has zero evictions plots as 0.
			vals = append(vals, v)
			t.AddRow(p.Benchmark, fmt.Sprintf("%.3f", v))
		}
		t.AddRow("geomean", fmt.Sprintf("%.3f", stats.GeomeanNonZero(vals)))
		_, err := fmt.Fprint(w, t.String())
		return err
	case "fig3d":
		t := stats.NewTable("Benchmark", "Msgs/eviction (base)", "Msgs/eviction (allarm)")
		for _, p := range pairs {
			t.AddRow(p.Benchmark,
				fmt.Sprintf("%.1f", p.Base.MessagesPerEviction()),
				fmt.Sprintf("%.1f", p.Opt.MessagesPerEviction()))
		}
		_, err := fmt.Fprint(w, t.String())
		return err
	case "fig3f":
		t := stats.NewTable("Benchmark", "NoC energy", "PF energy")
		var noc, pf []float64
		for _, p := range pairs {
			c := Compare(p.Base, p.Opt)
			noc = append(noc, c.NoCEnergyRatio)
			pf = append(pf, c.PFEnergyRatio)
			t.AddRow(p.Benchmark, fmt.Sprintf("%.3f", c.NoCEnergyRatio), fmt.Sprintf("%.3f", c.PFEnergyRatio))
		}
		t.AddRow("geomean", fmt.Sprintf("%.3f", stats.Geomean(noc)), fmt.Sprintf("%.3f", stats.Geomean(pf)))
		_, err := fmt.Fprint(w, t.String())
		return err
	case "fig3g":
		t := stats.NewTable("Benchmark", "Fraction snoop off critical path")
		var vals []float64
		for _, p := range pairs {
			f := p.Opt.SnoopHiddenFraction()
			vals = append(vals, f)
			t.AddRow(p.Benchmark, fmt.Sprintf("%.3f", f))
		}
		t.AddRow("mean", fmt.Sprintf("%.3f", stats.Mean(vals)))
		_, err := fmt.Fprint(w, t.String())
		return err
	}
	return fmt.Errorf("allarm: bad fig3 id %q", id)
}

// fig3hSizes are the probe-filter coverages of Figure 3h, expressed as
// fractions of the configured size (the paper: 512/256/128 kB).
var fig3hSizes = []int{1, 2, 4}

// renderFig3h prints speedup (vs the full-size baseline) per benchmark
// for shrinking probe filters under ALLARM. Results are benchmark-major:
// the reference run, then one ALLARM run per size.
func renderFig3h(w io.Writer, cfg Config, results []SweepResult) error {
	header := []string{"Benchmark"}
	for _, div := range fig3hSizes {
		header = append(header, fmt.Sprintf("%dkB", cfg.PFBytes>>10/div))
	}
	t := stats.NewTable(header...)
	stride := 1 + len(fig3hSizes)
	for i := 0; i+stride-1 < len(results); i += stride {
		ref := results[i].Result
		row := []string{results[i].Job.Benchmark}
		for k := 1; k < stride; k++ {
			row = append(row, fmt.Sprintf("%.3f", ref.RuntimeNs/results[i+k].Result.RuntimeNs))
		}
		t.AddRow(row...)
	}
	_, err := fmt.Fprint(w, t.String())
	return err
}

// fig4Divisors shrink the probe filter for the multi-process experiment
// (the paper: 512, 256, 128, 64, 32 kB).
var fig4Divisors = []int{1, 2, 4, 8, 16}

// fig4Policy returns the directory policy of a Figure 4 panel: the
// baseline for panels a-c, the optimised policy for panels d-f.
func fig4Policy(id string, opt Policy) Policy {
	if id == "fig4d" || id == "fig4e" || id == "fig4f" {
		return opt
	}
	return Baseline
}

// renderFig4 prints one multi-process panel: speedup / normalised
// evictions / normalised traffic versus probe-filter size, for the
// baseline (fig4a-c) or ALLARM (fig4d-f), normalised to the full-size
// baseline. Results are benchmark-major, mirroring ExperimentSweep: for
// ALLARM panels the baseline reference run leads each group; for
// baseline panels the first grid point is the reference.
func renderFig4(w io.Writer, cfg Config, id string, opt Policy, results []SweepResult) error {
	metric := map[string]string{
		"fig4a": "speedup", "fig4b": "evictions", "fig4c": "traffic",
		"fig4d": "speedup", "fig4e": "evictions", "fig4f": "traffic",
	}[id]

	header := []string{"Benchmark"}
	for _, div := range fig4Divisors {
		header = append(header, fmt.Sprintf("%dkB", cfg.PFBytes>>10/div))
	}
	t := stats.NewTable(header...)
	lead := 0 // extra reference job ahead of each group's grid points
	if fig4Policy(id, opt) != Baseline {
		lead = 1
	}
	stride := lead + len(fig4Divisors)
	for i := 0; i+stride-1 < len(results); i += stride {
		ref := results[i].Result
		row := []string{results[i].Job.Benchmark}
		for k := lead; k < stride; k++ {
			res := results[i+k].Result
			var v float64
			switch metric {
			case "speedup":
				v = ref.RuntimeNs / res.RuntimeNs
			case "evictions":
				v = stats.SafeDiv(float64(res.PFEvictions), float64(ref.PFEvictions), 0)
			case "traffic":
				v = stats.SafeDiv(float64(res.NoCBytes), float64(ref.NoCBytes), 0)
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.AddRow(row...)
	}
	_, err := fmt.Fprint(w, t.String())
	return err
}

// renderArea prints the probe-filter area table (§III-B), paper versus
// the calibrated power-law model.
func renderArea(w io.Writer) error {
	t := stats.NewTable("PF Configuration", "Paper (mm2)", "Model (mm2)")
	for _, kb := range []int{512, 256, 128, 64, 32} {
		bytes := kb << 10
		t.AddRow(fmt.Sprintf("%dkB", kb),
			fmt.Sprintf("%.2f", energy.PaperPFAreaMM2(bytes)),
			fmt.Sprintf("%.2f", energy.PFAreaMM2(bytes)))
	}
	_, err := fmt.Fprint(w, t.String())
	return err
}
