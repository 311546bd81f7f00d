package allarm_test

import (
	"context"
	"math"
	"testing"

	allarm "allarm"
)

// TestPaperClaims asserts the directions the paper's Figures 3 and 4
// state, on the fig3 and fig4 sweeps at 5,000 accesses per thread and
// seed 1 (scale and seed fixed before the first run, not tuned to pass).
// The goldens pin bytes; this pins meaning, so a protocol fix that moves
// exact counts still has to reproduce the paper. blackscholes' NoC
// traffic rise is a known deviation, not a claim, so only the geomean
// traffic direction is asserted. The fig3 and fig4d claims run once per
// optimised policy: ALLARM, and allarm-hyst at the same scale and seed.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig3 and fig4 sweeps")
	}
	cfg := allarm.ExperimentConfig()
	cfg.AccessesPerThread = 5_000
	cfg.Seed = 1
	run := func(t *testing.T, id string, opt allarm.Policy) []allarm.SweepResult {
		t.Helper()
		s, err := allarm.ExperimentSweep(cfg, id, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := allarm.RunSweep(context.Background(), s)
		if err == nil {
			err = allarm.FirstError(res)
		}
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return res
	}
	// Figure 4a: per benchmark, the baseline at each probe-filter size
	// from full size down; it may only slow as the filter shrinks. The
	// panel runs only the baseline, so it does not depend on the
	// optimised policy.
	fig4a := run(t, "fig4a", allarm.ALLARM)
	sizes := len(fig4a) / len(allarm.MultiProcessBenchmarks()) // the paper's 512 down to 32 kB
	for i := 0; i+sizes <= len(fig4a); i += sizes {
		for k := i + 1; k < i+sizes; k++ {
			if prev, cur := fig4a[k-1].Result.RuntimeNs, fig4a[k].Result.RuntimeNs; cur < prev {
				t.Errorf("fig4a %s: baseline runtime fell from %.0f to %.0f ns as the probe filter shrank to %d bytes",
					fig4a[k].Job.Benchmark, prev, cur, fig4a[k].Job.Config.PFBytes)
			}
		}
	}

	// The one claim that fails at this scale and seed, kept as a finding
	// rather than tuned away: under allarm-hyst, fluidanimate's L2
	// misses rise from the baseline's 19,836 to 19,860.
	l2Deviation := map[allarm.Policy]string{allarm.ALLARMHyst: "fluidanimate"}
	for _, opt := range []allarm.Policy{allarm.ALLARM, allarm.ALLARMHyst} {
		t.Run(string(opt), func(t *testing.T) {
			// Figure 3: one sweep behind panels a-e, benchmark-major,
			// baseline first.
			fig3 := run(t, "fig3a", opt)
			noEvictions := map[string]bool{"fluidanimate": true, "ocean-cont": true, "ocean-non-cont": true}
			var speedups, traffic []float64
			for i := 0; i+1 < len(fig3); i += 2 {
				b, base, o := fig3[i].Job.Benchmark, fig3[i].Result, fig3[i+1].Result
				t.Logf("%-16s PF evictions %d -> %d, L2 misses %d -> %d", b, base.PFEvictions, o.PFEvictions, base.L2Misses, o.L2Misses)
				if o.PFEvictions > base.PFEvictions {
					t.Errorf("fig3b %s: %s PF evictions %d > baseline %d", b, opt, o.PFEvictions, base.PFEvictions)
				}
				if noEvictions[b] && o.PFEvictions != 0 {
					t.Errorf("fig3b %s: %s PF evictions %d, want 0", b, opt, o.PFEvictions)
				}
				if o.L2Misses > base.L2Misses && l2Deviation[opt] != b {
					t.Errorf("fig3e %s: %s L2 misses %d > baseline %d", b, opt, o.L2Misses, base.L2Misses)
				}
				c := allarm.Compare(base, o)
				speedups = append(speedups, c.Speedup)
				traffic = append(traffic, c.TrafficRatio)
			}
			t.Logf("geomean speedup %.4f, NoC traffic %.4f", allarm.Geomean(speedups), allarm.Geomean(traffic))
			if g := allarm.Geomean(speedups); g <= 1 {
				t.Errorf("fig3a: %s geomean speedup %.4f, want > 1", opt, g)
			}
			if g := allarm.Geomean(traffic); g >= 1 {
				t.Errorf("fig3c: %s geomean NoC traffic %.4f, want < 1", opt, g)
			}

			// Figure 4d: per benchmark, the full-size baseline reference,
			// then the policy at each size; it stays within 1% of the
			// reference.
			fig4d := run(t, "fig4d", opt)
			for i := 0; i+sizes+1 <= len(fig4d); i += sizes + 1 {
				ref := fig4d[i].Result.RuntimeNs
				for k := i + 1; k <= i+sizes; k++ {
					if v := ref / fig4d[k].Result.RuntimeNs; math.Abs(v-1) > 0.01 {
						t.Errorf("fig4d %s at %d bytes: %s speedup %.4f over the full-size baseline, want within 1%% of 1",
							fig4d[k].Job.Benchmark, fig4d[k].Job.Config.PFBytes, opt, v)
					}
				}
			}
		})
	}
}
