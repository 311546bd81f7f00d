package system

import (
	"fmt"

	"allarm/internal/cache"
	"allarm/internal/mem"
)

// checker validates the protocol invariants the paper's correctness rests
// on. It observes every committed store and completed load through the
// cache-controller hooks and audits global state after the run quiesces:
//
//   - data-value: every load observes the version of the latest committed
//     store to its line (no stale reads);
//   - single-writer/multiple-reader: at most one M/E copy of a line, and
//     never alongside other valid copies (O may coexist with S only);
//   - probe-filter inclusivity: every cached line is tracked by its home,
//     except ALLARM's untracked lines, which must be held by their home
//     node's own core (the thread-local case);
//   - version coherence: the newest version of a line lives either in a
//     dirty cached copy or in DRAM.
type checker struct {
	m      *Machine
	golden map[mem.PAddr]uint64
	errs   []string // the first maxErrs failures' messages
	failed int      // every failure
}

// maxErrs bounds the failure messages a checker keeps.
const maxErrs = 20

func newChecker(m *Machine) *checker {
	c := &checker{m: m, golden: make(map[mem.PAddr]uint64)}
	for _, n := range m.nodes {
		n := n
		n.cc.OnStore = func(addr mem.PAddr, version uint64) {
			prev := c.golden[addr]
			if version != prev+1 {
				c.fail("node %d store to %#x committed version %d, want %d (lost or duplicated store)",
					n.id, uint64(addr), version, prev+1)
			}
			if version > prev {
				c.golden[addr] = version
			}
		}
		n.cc.OnLoad = func(addr mem.PAddr, version uint64) {
			if want := c.golden[addr]; version != want {
				c.fail("node %d load of %#x observed version %d, want %d (stale read)",
					n.id, uint64(addr), version, want)
			}
		}
	}
	return c
}

func (c *checker) fail(format string, args ...interface{}) {
	c.failed++
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// finalCheck audits the quiesced machine.
func (c *checker) finalCheck() error {
	type copyInfo struct {
		node      mem.NodeID
		state     cache.State
		version   uint64
		untracked bool
	}
	copies := make(map[mem.PAddr][]copyInfo)
	for _, n := range c.m.nodes {
		n := n
		n.hier.ForEachValid(func(l cache.Line) {
			copies[l.Addr] = append(copies[l.Addr], copyInfo{
				node: n.id, state: l.State, version: l.Version, untracked: l.Untracked,
			})
		})
		if !n.dir.Quiesced() {
			c.fail("directory %d still has in-flight transactions after quiesce", n.id)
		}
	}

	for addr, cs := range copies {
		home := c.m.phys.Home(addr)
		dirVer := c.m.nodes[home].dir.DRAMVersion(addr)

		var writable, owners, valid int
		var maxVer uint64
		var dirtyMax uint64
		for _, ci := range cs {
			valid++
			if ci.state.Writable() {
				writable++
			}
			if ci.state.Dirty() || ci.state.Writable() {
				owners++
			}
			if ci.version > maxVer {
				maxVer = ci.version
			}
			if ci.state.Dirty() && ci.version > dirtyMax {
				dirtyMax = ci.version
			}
			if ci.untracked && ci.node != home {
				c.fail("line %#x cached untracked at node %d but homed at %d",
					uint64(addr), ci.node, home)
			}
		}
		if writable > 1 {
			c.fail("line %#x has %d writable copies (SWMR violation)", uint64(addr), writable)
		}
		if writable == 1 && valid > 1 {
			c.fail("line %#x has a writable copy alongside %d other copies", uint64(addr), valid-1)
		}
		if owners > 1 {
			c.fail("line %#x has %d owner-state copies", uint64(addr), owners)
		}

		// The newest committed version must be recoverable: in a dirty
		// copy, or already in DRAM.
		want := c.golden[addr]
		newest := dirVer
		if dirtyMax > newest {
			newest = dirtyMax
		}
		if want != 0 && newest != want {
			c.fail("line %#x newest recoverable version %d, want %d (lost update)",
				uint64(addr), newest, want)
		}
		// Every valid copy must hold the newest version (stale sharers
		// are impossible: invalidations precede new writes).
		for _, ci := range cs {
			if want != 0 && ci.version != want {
				c.fail("line %#x node %d holds stale version %d, want %d",
					uint64(addr), ci.node, ci.version, want)
			}
		}

		// Probe-filter inclusivity.
		entry := c.m.nodes[home].dir.PF().Peek(addr)
		for _, ci := range cs {
			tracked := entry != nil
			if !tracked && !(ci.untracked && ci.node == home) {
				c.fail("line %#x cached at node %d in %v with no probe-filter entry at home %d",
					uint64(addr), ci.node, ci.state, home)
			}
		}
	}

	// Lines written but no longer cached anywhere: DRAM must have the
	// final version.
	for addr, want := range c.golden {
		if _, cached := copies[addr]; cached {
			continue
		}
		home := c.m.phys.Home(addr)
		if got := c.m.nodes[home].dir.DRAMVersion(addr); got != want {
			c.fail("line %#x uncached with DRAM version %d, want %d (lost writeback)",
				uint64(addr), got, want)
		}
	}

	for _, n := range c.m.nodes {
		if s := n.dir.Stats(); s.StaleVersionWrites > 0 {
			c.fail("directory %d saw %d stale-version DRAM writes", n.id, s.StaleVersionWrites)
		}
	}

	if c.failed == 0 {
		return nil
	}
	msg := fmt.Sprintf("system: %d invariant violations; first: %s", c.failed, c.errs[0])
	for i := 1; i < len(c.errs) && i < 5; i++ {
		msg += "\n  " + c.errs[i]
	}
	return fmt.Errorf("%s", msg)
}
