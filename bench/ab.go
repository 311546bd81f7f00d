package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// abSide is one side of an A/B comparison: a checkout and the benchmark
// binary built in it.
type abSide struct {
	name, root, bin string
	passes          []map[string]report // one per pair, in pair order
}

// runAB compares the working tree ("change") against a git revision
// ("parent"). The revision is checked out into a temporary worktree and
// this bench/ is copied into it, so both sides run identical benchmark
// code against their own simulator and daemons. Passes alternate, the
// side that goes first switching every pair, and every end-to-end
// metric of every workload gets a verdict.
func runAB(ctx context.Context, o options, rev string, pairs int, names []string) error {
	if pairs < 1 {
		return fmt.Errorf("-pairs must be at least 1")
	}
	abDir := filepath.Join(o.root, buildDir, "ab")
	parentRoot := filepath.Join(abDir, "parent")
	// A worktree left by an interrupted run is removed first; when there
	// is none, git's complaint is expected and ignored.
	_ = git(ctx, o.root, "worktree", "remove", "--force", parentRoot)
	if err := os.RemoveAll(parentRoot); err != nil {
		return err
	}
	if err := git(ctx, o.root, "worktree", "add", "--detach", parentRoot, rev); err != nil {
		return err
	}
	defer func() {
		if err := git(context.Background(), o.root, "worktree", "remove", "--force", parentRoot); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}()
	benchDir := filepath.Join(parentRoot, "bench")
	if err := os.RemoveAll(benchDir); err != nil {
		return err
	}
	if err := copyBench(filepath.Join(o.root, "bench"), benchDir); err != nil {
		return err
	}

	sides := []*abSide{{name: "parent", root: parentRoot}, {name: "change", root: o.root}}
	for _, s := range sides {
		s.bin = filepath.Join(abDir, s.name+"-bench")
		cmd := exec.CommandContext(ctx, "go", "build", "-C", filepath.Join(s.root, "bench"), "-o", s.bin, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("build %s benchmark: %v\n%s", s.name, err, out)
		}
	}
	for p := 0; p < pairs; p++ {
		order := sides
		if p%2 == 1 {
			order = []*abSide{sides[1], sides[0]}
		}
		for _, s := range order {
			fmt.Fprintf(os.Stderr, "bench: A/B pair %d/%d: %s\n", p+1, pairs, s.name)
			reps, err := s.pass(ctx, o, names, o.seed+uint64(p))
			if err != nil {
				return err
			}
			s.passes = append(s.passes, reps)
		}
	}
	printVerdicts(names, sides[0], sides[1])
	return nil
}

// pass runs one benchmark pass on this side and returns its reports.
func (s *abSide) pass(ctx context.Context, o options, names []string, seed uint64) (map[string]report, error) {
	workload := "all"
	if len(names) == 1 {
		workload = names[0]
	}
	cmd := exec.CommandContext(ctx, s.bin, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
	cmd.Dir = s.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	var all pass
	if json.Unmarshal(last, &all) == nil && all.Workloads != nil {
		return all.Workloads, nil
	}
	var one report
	if json.Unmarshal(last, &one) == nil && one.Metrics != nil {
		return map[string]report{workload: one}, nil
	}
	return nil, fmt.Errorf("%s pass printed no result (%v)", s.name, err)
}

// printVerdicts prints, per workload and end-to-end metric, each side's
// median and quartiles, the change's win fraction and the verdict.
func printVerdicts(names []string, parent, change *abSide) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	for _, w := range names {
		for _, spec := range endToEnd {
			var pv, cv []float64
			wrong := 0
			for i := range parent.passes {
				pr, cr := parent.passes[i][w], change.passes[i][w]
				if !pr.Correct || !cr.Correct {
					wrong++
				}
				pv = append(pv, pr.Metrics[spec.name].Value)
				cv = append(cv, cr.Metrics[spec.name].Value)
			}
			wins := 0
			for i := range pv {
				if better(spec, cv[i], pv[i]) {
					wins++
				}
			}
			v := verdict(spec, pv, cv, wins)
			if wrong > 0 {
				v = fmt.Sprintf("%s (%d incorrect passes)", v, wrong)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n", w, spec.name,
				median(pv), quantile(pv, 0.25), quantile(pv, 0.75),
				median(cv), quantile(cv, 0.25), quantile(cv, 0.75), wins, len(pv), v)
		}
	}
	tw.Flush()
}

func better(spec metricSpec, a, b float64) bool {
	if spec.better == "lower" {
		return a < b
	}
	return a > b
}

// verdict applies the paired-runs rule: "improved" needs at least 10 pairs,
// the change winning 9 in 10 of them, and the medians differing by more
// than the parent's interquartile range; "no worse" needs the change's
// median within the metric's bound of the parent's while the parent's
// spread is narrower than the bound (or every change run better than
// every parent run); "worse" is a regression beyond the bound with a
// narrow spread; anything else is "unresolved".
func verdict(spec metricSpec, pv, cv []float64, wins int) string {
	pm, cm := median(pv), median(cv)
	iqr := quantile(pv, 0.75) - quantile(pv, 0.25)
	worsening := ratio(cm-pm, math.Abs(pm))
	if spec.better == "higher" {
		worsening = -worsening
	}
	narrow := ratio(iqr, math.Abs(pm)) <= spec.bound
	dominates := true
	for _, c := range cv {
		for _, p := range pv {
			dominates = dominates && better(spec, c, p)
		}
	}
	switch {
	case len(pv) >= 10 && 10*wins >= 9*len(pv) && math.Abs(cm-pm) > iqr && better(spec, cm, pm):
		return "improved"
	case worsening <= spec.bound && (narrow || dominates):
		return "no worse"
	case worsening > spec.bound && narrow:
		return "worse"
	}
	return "unresolved"
}

// git runs a git command in dir.
func git(ctx context.Context, dir string, args ...string) error {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("git %v: %v\n%s", args, err, out)
	}
	return nil
}

// copyBench copies the benchmark's regular files from src to dst,
// leaving out its outputs.
func copyBench(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		switch {
		case d.IsDir() && rel == "out":
			return filepath.SkipDir
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		case !d.Type().IsRegular():
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, info.Mode().Perm())
	})
}
