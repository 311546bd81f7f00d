package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Spans of one simulation
// or one request share Trace; Parent names the span that caused it.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// spanMedians returns, for each name, the median duration in ms of the
// spans with that name.
func spanMedians(spans []span, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		var ds []float64
		for _, s := range spans {
			if s.Name == n {
				ds = append(ds, s.ms())
			}
		}
		out["span."+n+"_ms"] = median(ds)
	}
	return out
}

// writeTrace writes a workload's spans to bench/out/trace-<workload>.json
// under root, with times relative to the run's start.
func writeTrace(root, workload string, start time.Time, spans []span) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rel := make([]span, len(spans))
	for i, s := range spans {
		s.Start -= start.UnixNano()
		s.End -= start.UnixNano()
		rel[i] = s
	}
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, rel}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// layerSeconds reduces CPU profiles with the toolchain's
// `go tool pprof -top`, summing flat seconds per layer (see layerOf).
// total is the flat time of every sample, attributed or not.
func layerSeconds(ctx context.Context, profiles []string) (layers map[string]float64, total float64, err error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=100000"}, profiles...)
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	layers = make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(out))
	table := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !table {
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, 0, fmt.Errorf("go tool pprof: bad row %q", sc.Text())
		}
		total += flat.Seconds()
		if l := layerOf(strings.Join(f[5:], " ")); l != "" {
			layers[l] += flat.Seconds()
		}
	}
	if !table {
		return nil, 0, fmt.Errorf("go tool pprof: no table in output")
	}
	return layers, total, nil
}

// pkgOf returns the import path of a profiled function name such as
// "allarm/internal/sim.(*Engine).Run" or "runtime.mallocgc".
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a profiled function to the layer its CPU time is charged
// to, or "" for time the report does not attribute.
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case !strings.Contains(fn, "."):
		return "runtime" // assembly stubs such as aeshashbody and gcWriteBarrier
	case strings.HasPrefix(pkg, "allarm/internal/"):
		switch l := strings.TrimPrefix(pkg, "allarm/internal/"); l {
		case "energy", "stats":
			return "system"
		default:
			return l
		}
	case pkg == "allarm":
		// The facade: its stream adapters feed the cores, its emitters
		// render results, the rest builds and drives machines.
		switch {
		case strings.Contains(fn, "Stream"):
			return "workload"
		case strings.Contains(fn, "Emit") || strings.Contains(fn, "Record"):
			return "codec"
		default:
			return "system"
		}
	case strings.HasPrefix(pkg, "net") || pkg == "internal/poll" || pkg == "syscall" ||
		pkg == "internal/runtime/syscall" || pkg == "bufio":
		return "transport"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "sync" || pkg == "sync/atomic":
		return "runtime"
	case pkg == "encoding/json" || pkg == "encoding/csv" || pkg == "strconv":
		return "codec"
	}
	return ""
}
