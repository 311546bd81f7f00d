package system

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"allarm/internal/cache"
	"allarm/internal/mem"
)

// spareLine is node 1's last line, which no run touches: it has no
// probe-filter entry, no DRAM version and no store.
func spareLine(m *Machine) mem.PAddr {
	return mem.PAddr(2*m.cfg.MemBytesPerNode - mem.LineBytes)
}

// soleCopy returns the first line, in node order, that the run left
// cached at exactly one node and that ok accepts, with that node.
func soleCopy(t *testing.T, m *Machine, ok func(n *node, l cache.Line) bool) (*node, cache.Line) {
	t.Helper()
	holders := map[mem.PAddr]int{}
	for _, n := range m.nodes {
		n.hier.ForEachValid(func(l cache.Line) { holders[l.Addr]++ })
	}
	for _, n := range m.nodes {
		var found []cache.Line
		n.hier.ForEachValid(func(l cache.Line) {
			if holders[l.Addr] == 1 && ok(n, l) {
				found = append(found, l)
			}
		})
		if len(found) > 0 {
			return n, found[0]
		}
	}
	t.Fatal("no cached line fits")
	return nil, cache.Line{}
}

// TestCheckerReportsEachViolation injects, into a checked machine whose
// run quiesced with a clean audit, one violation of each class the
// final audit names, and a stale load; each must come back with its own
// message.
func TestCheckerReportsEachViolation(t *testing.T) {
	for _, c := range []struct {
		name   string
		inject func(t *testing.T, m *Machine) string // the message it must cause
	}{
		{"two writable copies", func(t *testing.T, m *Machine) string {
			n, l := soleCopy(t, m, func(_ *node, l cache.Line) bool { return l.State.Writable() })
			m.nodes[(int(n.id)+1)%len(m.nodes)].hier.Fill(l.Addr, cache.Modified, false, l.Version)
			return fmt.Sprintf("line %#x has 2 writable copies (SWMR violation)", uint64(l.Addr))
		}},
		{"stale copy", func(t *testing.T, m *Machine) string {
			n, l := soleCopy(t, m, func(_ *node, l cache.Line) bool {
				return !l.State.Dirty() && l.Version != 0 && l.Version == m.check.golden[l.Addr]
			})
			n.hier.Find(l.Addr).SetVersion(l.Version - 1)
			return fmt.Sprintf("line %#x node %d holds stale version %d, want %d", uint64(l.Addr), n.id, l.Version-1, l.Version)
		}},
		{"lost writeback", func(t *testing.T, m *Machine) string {
			cached := map[mem.PAddr]bool{}
			for _, n := range m.nodes {
				n.hier.ForEachValid(func(l cache.Line) { cached[l.Addr] = true })
			}
			var written []mem.PAddr
			for addr := range m.check.golden {
				if !cached[addr] {
					written = append(written, addr)
				}
			}
			if len(written) == 0 {
				t.Fatal("no written line left uncached")
			}
			addr := slices.Min(written)
			m.check.golden[addr]++ // a store whose data never reached DRAM
			want := m.check.golden[addr]
			return fmt.Sprintf("line %#x uncached with DRAM version %d, want %d (lost writeback)", uint64(addr), want-1, want)
		}},
		{"untracked away from home", func(t *testing.T, m *Machine) string {
			n, l := soleCopy(t, m, func(n *node, l cache.Line) bool { return n.id != m.phys.Home(l.Addr) })
			n.hier.Fill(l.Addr, l.State, true, l.Version)
			return fmt.Sprintf("line %#x cached untracked at node %d but homed at %d", uint64(l.Addr), n.id, m.phys.Home(l.Addr))
		}},
		{"no probe-filter entry", func(t *testing.T, m *Machine) string {
			addr := spareLine(m)
			m.nodes[0].hier.Fill(addr, cache.Shared, false, 0)
			return fmt.Sprintf("line %#x cached at node 0 in S with no probe-filter entry at home 1", uint64(addr))
		}},
		{"stale load", func(t *testing.T, m *Machine) string {
			addr := spareLine(m)
			m.nodes[2].cc.OnLoad(addr, 1)
			return fmt.Sprintf("node 2 load of %#x observed version 1, want 0 (stale read)", uint64(addr))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, _ := stressMachine(t, baselinePolicy, 1, 500)
			want := c.inject(t, m)
			if err := m.check.finalCheck(); err == nil || !slices.Contains(m.check.errs, want) {
				t.Fatalf("error %v; kept %q, want %q among them", err, m.check.errs, want)
			}
		})
	}
}

// TestCheckerCountsEveryViolation: the error counts every violation,
// though the checker keeps only the first maxErrs messages.
func TestCheckerCountsEveryViolation(t *testing.T) {
	m, _ := stressMachine(t, baselinePolicy, 1, 500)
	addr := spareLine(m)
	for i := 0; i < 24; i++ {
		m.nodes[i%len(m.nodes)].cc.OnLoad(addr, 1)
	}
	m.nodes[0].hier.Fill(addr, cache.Shared, false, 0) // the 25th
	err := m.check.finalCheck()
	if err == nil || !strings.HasPrefix(err.Error(), "system: 25 invariant violations; first: ") || len(m.check.errs) != maxErrs {
		t.Fatalf("error %v with %d messages kept; want 25 violations and %d messages", err, len(m.check.errs), maxErrs)
	}
}
