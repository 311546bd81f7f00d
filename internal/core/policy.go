package core

import (
	"fmt"
	"sort"
)

// MissAction is a DirectoryPolicy's decision for one probe-filter miss.
type MissAction uint8

const (
	// Track installs a probe-filter entry for the line — the
	// conventional sparse-directory behaviour, always legal.
	Track MissAction = iota
	// GrantUntracked serves the miss from DRAM with no entry; the
	// requester caches the line untracked. Only legal for local misses:
	// untracked copies are discoverable solely by the home directory's
	// probe of its own core, so granting one to a remote node would
	// break coherence (the simulator panics).
	GrantUntracked
	// GrantUncached serves the miss with no entry and no fill: the
	// requester consumes the data without caching the line, so no state
	// survives anywhere and the next access to the line misses again.
	// Only legal for read misses (the simulator panics on writes).
	// Deferred-allocation schemes use it to make a line prove its
	// sharing before spending an entry on it.
	GrantUncached
)

// String implements fmt.Stringer.
func (a MissAction) String() string {
	switch a {
	case Track:
		return "track"
	case GrantUntracked:
		return "grant-untracked"
	case GrantUncached:
		return "grant-uncached"
	default:
		return fmt.Sprintf("MissAction(%d)", uint8(a))
	}
}

// Miss describes one demand request that missed the probe filter, for a
// DirectoryPolicy's decision.
type Miss struct {
	// Addr is the line-aligned physical address.
	Addr uint64
	// Requester and Home are the requesting and home node ids.
	Requester, Home int
	// Local reports whether the requester is in the home's affinity
	// domain (Requester == Home).
	Local bool
	// Write reports whether the request wants ownership (a store miss).
	Write bool
}

// PolicyContext describes the directory controller a policy instance
// will serve. One instance is built per directory, so policies may keep
// per-directory state without synchronisation.
type PolicyContext struct {
	// Node is the directory's node id; Nodes the machine's node count.
	Node, Nodes int
	// InRange reports whether the configuration's ALLARM range registers
	// enable an address (always true when no ranges are configured).
	// Policies that honour the paper's boot-time range registers gate
	// their non-Track decisions on it.
	InRange func(addr uint64) bool
}

// DirectoryPolicy decides how one directory handles probe-filter misses
// — the axis the paper explores (allocate-on-any-miss versus
// allocate-on-remote-miss, §II). Implementations must be deterministic
// functions of their own state and the miss sequence (no wall-clock, no
// global mutable state): the simulator's reproducibility contract
// extends to policies. OnMiss is consulted exactly once per missing
// transaction, so stateful schemes are not skewed by internal retries.
type DirectoryPolicy interface {
	// OnMiss picks the action for a miss (see MissAction for legality
	// rules).
	OnMiss(m Miss) MissAction
	// ProbeLocalOnRemoteMiss reports whether a remote miss to addr must
	// query the home's own core for an untracked copy, in parallel with
	// the DRAM access. Any policy that may ever return GrantUntracked
	// for addr must return true here, or those copies become
	// undiscoverable.
	ProbeLocalOnRemoteMiss(addr uint64) bool
}

// StatefulDirectoryPolicy is optionally implemented by DirectoryPolicy
// schemes that keep mutable decision state. Implementing it makes the
// state part of machine checkpoints: a job snapshotted mid-run and
// resumed elsewhere replays the policy's decisions bit-identically. The
// serialization must be deterministic — same state, same bytes —
// because checkpoint equality is compared bytewise. Stateful policies
// that do NOT implement it cannot be checkpointed; resume would silently
// diverge, so the snapshot layer has no way to carry them and jobs under
// such policies re-simulate from scratch after a restart.
type StatefulDirectoryPolicy interface {
	DirectoryPolicy
	// SavePolicyState returns an opaque deterministic serialization of
	// the policy's mutable state.
	SavePolicyState() ([]byte, error)
	// LoadPolicyState overwrites the policy's mutable state with a
	// serialization produced by SavePolicyState.
	LoadPolicyState(data []byte) error
}

// PolicyFactory builds one directory's policy instance.
type PolicyFactory func(ctx PolicyContext) DirectoryPolicy

// NewBaseline is the PolicyFactory of the conventional sparse
// directory: every miss allocates, no local probes are needed.
func NewBaseline(PolicyContext) DirectoryPolicy { return baselinePolicy{} }

type baselinePolicy struct{}

// OnMiss implements DirectoryPolicy.
func (baselinePolicy) OnMiss(Miss) MissAction { return Track }

// ProbeLocalOnRemoteMiss implements DirectoryPolicy.
func (baselinePolicy) ProbeLocalOnRemoteMiss(uint64) bool { return false }

// NewALLARM is the PolicyFactory of the paper's contribution: local
// misses within the enabled ranges are served untracked; remote misses
// allocate and probe the home's core for untracked copies.
func NewALLARM(ctx PolicyContext) DirectoryPolicy { return allarmPolicy{inRange: ctx.InRange} }

type allarmPolicy struct {
	inRange func(addr uint64) bool
}

// OnMiss implements DirectoryPolicy.
func (p allarmPolicy) OnMiss(m Miss) MissAction {
	if m.Local && p.inRange(m.Addr) {
		return GrantUntracked
	}
	return Track
}

// ProbeLocalOnRemoteMiss implements DirectoryPolicy.
func (p allarmPolicy) ProbeLocalOnRemoteMiss(addr uint64) bool { return p.inRange(addr) }

// AddrRange is a half-open physical address range [Start, End).
type AddrRange struct {
	Start, End uint64
}

// Contains reports whether a lies in the range.
func (r AddrRange) Contains(a uint64) bool { return a >= r.Start && a < r.End }

// RangeSet models the paper's boot-time range registers (§II-C): MTRR-like
// registers on each directory controller that restrict ALLARM to selected
// physical ranges. An empty RangeSet enables ALLARM everywhere (the
// default configuration used in the evaluation).
//
// Ranges are normalised (sorted, merged) at construction so Enabled is a
// binary search.
type RangeSet struct {
	ranges []AddrRange
}

// NewRangeSet builds a normalised range set. Ranges with Start >= End are
// rejected with a descriptive error.
func NewRangeSet(ranges ...AddrRange) (*RangeSet, error) {
	rs := make([]AddrRange, 0, len(ranges))
	for _, r := range ranges {
		if r.Start >= r.End {
			return nil, fmt.Errorf("core: empty or inverted range [%#x,%#x)", r.Start, r.End)
		}
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
	merged := rs[:0]
	for _, r := range rs {
		if n := len(merged); n > 0 && r.Start <= merged[n-1].End {
			if r.End > merged[n-1].End {
				merged[n-1].End = r.End
			}
			continue
		}
		merged = append(merged, r)
	}
	return &RangeSet{ranges: merged}, nil
}

// Enabled reports whether ALLARM applies to a. A nil or empty set enables
// every address.
func (s *RangeSet) Enabled(a uint64) bool {
	if s == nil || len(s.ranges) == 0 {
		return true
	}
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].End > a })
	return i < len(s.ranges) && s.ranges[i].Contains(a)
}

// Len returns the number of normalised ranges.
func (s *RangeSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.ranges)
}
