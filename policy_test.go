package allarm_test

import (
	"context"
	"reflect"
	"testing"

	allarm "allarm"
)

// baselineClone and allarmClone re-implement the built-in schemes
// against the public API only.
type baselineClone struct{}

func (baselineClone) OnMiss(allarm.Miss) allarm.MissAction { return allarm.Track }
func (baselineClone) ProbeLocalOnRemoteMiss(uint64) bool   { return false }

type allarmClone struct{ inRange func(addr uint64) bool }

func (p allarmClone) OnMiss(m allarm.Miss) allarm.MissAction {
	if m.Local && p.inRange(m.Addr) {
		return allarm.GrantUntracked
	}
	return allarm.Track
}

func (p allarmClone) ProbeLocalOnRemoteMiss(addr uint64) bool { return p.inRange(addr) }

func init() {
	allarm.MustRegisterPolicy("test-baseline-clone", func(allarm.PolicyContext) allarm.DirectoryPolicy {
		return baselineClone{}
	})
	allarm.MustRegisterPolicy("test-allarm-clone", func(ctx allarm.PolicyContext) allarm.DirectoryPolicy {
		return allarmClone{inRange: ctx.InRange}
	})
}

// TestBuiltinsMatchPublicClones: the built-in baseline and allarm
// schemes take the same path as user schemes, so a public-API clone of
// each, registered through RegisterPolicy, yields the same metrics
// under the coherence checker.
func TestBuiltinsMatchPublicClones(t *testing.T) {
	cfg := fastConfig()
	pairs := [][2]allarm.Policy{
		{allarm.Baseline, "test-baseline-clone"},
		{allarm.ALLARM, "test-allarm-clone"},
	}
	var policies []allarm.Policy
	for _, p := range pairs {
		policies = append(policies, p[0], p[1])
	}
	results, err := allarm.RunSweep(context.Background(),
		allarm.NewSweep(allarm.Job{Config: cfg}).
			CrossBenchmarks("ocean-cont", "blackscholes").
			CrossPolicies(policies...))
	if err == nil {
		err = allarm.FirstError(results)
	}
	if err != nil {
		t.Fatal(err)
	}
	recs := allarm.RecordsOf(results)
	for i := 0; i < len(recs); i += 2 {
		builtin, clone := recs[i], recs[i+1]
		if !reflect.DeepEqual(builtin.RecordMetrics, clone.RecordMetrics) {
			t.Errorf("%s: %s %+v\n%s %+v", builtin.Benchmark,
				builtin.Policy, *builtin.RecordMetrics, clone.Policy, *clone.RecordMetrics)
		}
	}
	if recs[2].UntrackedGrants == 0 {
		t.Fatal("ocean-cont under allarm made no untracked grants")
	}
}
