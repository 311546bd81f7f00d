package allarm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"allarm/internal/core"
	"allarm/internal/mem"
)

// Policy names a directory allocation policy — the axis the paper
// explores. The value is a key into the package's policy registry:
// "baseline" and "allarm" reproduce the paper's two machines,
// "allarm-hyst" is the bundled deferred-allocation variant, and
// RegisterPolicy adds user schemes. The zero value means Baseline.
type Policy string

// Registered built-in policies.
const (
	// Baseline is the conventional sparse directory: allocate on any
	// miss (with clean-exclusive eviction notification, the paper's
	// "already optimized" baseline).
	Baseline Policy = "baseline"
	// ALLARM allocates only on remote misses (the paper's contribution).
	ALLARM Policy = "allarm"
	// ALLARMHyst is ALLARM with allocation hysteresis: a directory entry
	// is spent on a region's lines only from the second remote read miss
	// to that region onward; the first remote read per region (and every
	// remote write) behaves as documented on the policy. It demonstrates
	// the pluggable-policy API.
	ALLARMHyst Policy = "allarm-hyst"
)

// String implements fmt.Stringer; the zero value prints as "baseline".
func (p Policy) String() string {
	if p == "" {
		return string(Baseline)
	}
	return string(p)
}

// ParsePolicy resolves a policy name against the registry — the one
// parser all CLI flag handling shares. The empty string parses as
// Baseline; unknown names error with the registered alternatives.
func ParsePolicy(s string) (Policy, error) {
	p := Policy(s)
	if s == "" {
		p = Baseline
	}
	policyMu.RLock()
	_, ok := policyRegistry[string(p)]
	policyMu.RUnlock()
	if !ok {
		return "", fmt.Errorf("allarm: unknown policy %q (have %v)", s, RegisteredPolicies())
	}
	return p, nil
}

// RegisteredPolicies returns the registered policy names, sorted.
func RegisteredPolicies() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	names := make([]string, 0, len(policyRegistry))
	for n := range policyRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PolicyInfo describes one registered directory policy — the discovery
// record behind DescribePolicies, allarm-serve's GET /v1/policies and
// the CLI -list flags.
type PolicyInfo struct {
	// Name is the registry key Config.Policy selects the scheme by.
	Name string `json:"name"`
	// Builtin marks the schemes the package ships.
	Builtin bool `json:"builtin"`
	// Description is a one-line human summary; empty for user schemes
	// (RegisterPolicy records no prose).
	Description string `json:"description,omitempty"`
}

// DescribePolicies returns every registered policy sorted by name.
func DescribePolicies() []PolicyInfo {
	policyMu.RLock()
	defer policyMu.RUnlock()
	out := make([]PolicyInfo, 0, len(policyRegistry))
	for n, e := range policyRegistry {
		out = append(out, PolicyInfo{Name: n, Builtin: e.builtin, Description: e.desc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Miss describes one demand request that missed the probe filter, for a
// DirectoryPolicy's decision.
type Miss = core.Miss

// MissAction is a DirectoryPolicy's decision for one miss.
type MissAction = core.MissAction

// The three miss actions.
const (
	// Track installs a probe-filter entry for the line — the
	// conventional behaviour, always legal.
	Track = core.Track
	// GrantUntracked serves the miss from DRAM with no entry; the
	// requester caches the line untracked. Only legal for local misses
	// (the simulator panics otherwise).
	GrantUntracked = core.GrantUntracked
	// GrantUncached serves a read miss with no entry and no fill: the
	// requester consumes the data without caching the line. Only legal
	// for read misses (the simulator panics on writes).
	GrantUncached = core.GrantUncached
)

// PolicyContext describes the directory controller a policy instance
// will serve: its node, the machine's node count, and InRange, which
// reports whether Config.ALLARMRanges enable an address (always true
// when no ranges are configured).
type PolicyContext = core.PolicyContext

// DirectoryPolicy decides how one directory handles probe-filter misses.
// It is the one policy interface: the built-in Baseline and ALLARM
// schemes implement it exactly like user schemes do. Implementations
// must be deterministic functions of their own state and the miss
// sequence; OnMiss is consulted exactly once per missing transaction.
type DirectoryPolicy = core.DirectoryPolicy

// StatefulDirectoryPolicy is optionally implemented by DirectoryPolicy
// schemes that keep mutable decision state, making that state part of
// machine checkpoints (see Checkpoints in README.md). Its serialization
// must be deterministic: checkpoint equality is compared bytewise.
type StatefulDirectoryPolicy = core.StatefulDirectoryPolicy

// PolicyFactory builds one directory's policy instance.
type PolicyFactory = core.PolicyFactory

// policyEntry is one registry slot.
type policyEntry struct {
	factory PolicyFactory
	desc    string
	builtin bool
}

var (
	policyMu       sync.RWMutex
	policyRegistry = map[string]policyEntry{}
)

func init() {
	policyRegistry[string(Baseline)] = policyEntry{
		factory: core.NewBaseline,
		desc:    "conventional sparse directory: allocate an entry on any miss",
		builtin: true,
	}
	policyRegistry[string(ALLARM)] = policyEntry{
		factory: core.NewALLARM,
		desc:    "allocate only on remote misses; local data stays untracked (the paper)",
		builtin: true,
	}
	policyRegistry[string(ALLARMHyst)] = policyEntry{
		factory: newHystPolicy,
		desc:    "ALLARM with hysteresis: a region's first remote read is served uncached",
		builtin: true,
	}
}

// RegisterPolicy adds a named allocation policy to the registry, making
// it usable everywhere a Policy goes: Config.Policy, CrossPolicies,
// ParsePolicy and the CLI tools' -policy flags. Registration is typically
// done from an init function; re-registering a name (including the
// built-ins) errors.
func RegisterPolicy(name string, factory PolicyFactory) error {
	if name == "" {
		return fmt.Errorf("allarm: policy name must be non-empty")
	}
	if factory == nil {
		return fmt.Errorf("allarm: policy %q needs a factory", name)
	}
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, exists := policyRegistry[name]; exists {
		return fmt.Errorf("allarm: policy %q already registered", name)
	}
	policyRegistry[name] = policyEntry{factory: factory}
	return nil
}

// MustRegisterPolicy is RegisterPolicy for init-time registration; it
// panics on error.
func MustRegisterPolicy(name string, factory PolicyFactory) {
	if err := RegisterPolicy(name, factory); err != nil {
		panic(err)
	}
}

// allocFactory resolves the policy name and returns the per-directory
// factory the machine builder consumes, each instance seeing the
// configured range registers through PolicyContext.InRange.
func (c Config) allocFactory(ranges *core.RangeSet) (func(node mem.NodeID) DirectoryPolicy, error) {
	name := c.Policy.String()
	policyMu.RLock()
	e, ok := policyRegistry[name]
	policyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("allarm: unknown policy %q (have %v)", name, RegisteredPolicies())
	}
	nodes := c.Nodes
	return func(node mem.NodeID) DirectoryPolicy {
		return e.factory(PolicyContext{Node: int(node), Nodes: nodes, InRange: ranges.Enabled})
	}, nil
}

// RegionBytes is the granularity at which ALLARMHyst observes sharing:
// one OS page, the same granule first-touch placement works at.
const RegionBytes = mem.PageBytes

// hystPolicy implements the allarm-hyst scheme through the public
// DirectoryPolicy interface, registered like a user scheme. Local misses are served untracked like
// ALLARM. A remote read miss to a region no remote reader has touched
// before is served uncached — no entry, no copy — and only from the
// region's second remote read miss onward (or any remote write) are
// entries allocated. Regions outside the configured ranges behave like
// the baseline.
type hystPolicy struct {
	inRange func(addr uint64) bool
	seen    map[uint64]bool // regions that have seen a remote read miss
}

func newHystPolicy(ctx PolicyContext) DirectoryPolicy {
	return &hystPolicy{inRange: ctx.InRange, seen: make(map[uint64]bool)}
}

// OnMiss implements DirectoryPolicy.
func (p *hystPolicy) OnMiss(m Miss) MissAction {
	if p.inRange != nil && !p.inRange(m.Addr) {
		return Track
	}
	if m.Local {
		return GrantUntracked
	}
	if m.Write {
		return Track
	}
	region := m.Addr &^ uint64(RegionBytes-1)
	if p.seen[region] {
		return Track
	}
	p.seen[region] = true
	return GrantUncached
}

// ProbeLocalOnRemoteMiss implements DirectoryPolicy.
func (p *hystPolicy) ProbeLocalOnRemoteMiss(addr uint64) bool {
	return p.inRange == nil || p.inRange(addr)
}

// SavePolicyState implements StatefulDirectoryPolicy: the seen-region
// set, sorted so the serialization is deterministic.
func (p *hystPolicy) SavePolicyState() ([]byte, error) {
	regions := make([]uint64, 0, len(p.seen))
	for r := range p.seen {
		regions = append(regions, r)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	out := make([]byte, 0, 8+8*len(regions))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(regions)))
	for _, r := range regions {
		out = binary.LittleEndian.AppendUint64(out, r)
	}
	return out, nil
}

// LoadPolicyState implements StatefulDirectoryPolicy.
func (p *hystPolicy) LoadPolicyState(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("allarm: hysteresis state truncated (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	if uint64(len(data)) != 8+8*n {
		return fmt.Errorf("allarm: hysteresis state length %d does not match %d regions", len(data), n)
	}
	p.seen = make(map[uint64]bool, n)
	for i := uint64(0); i < n; i++ {
		p.seen[binary.LittleEndian.Uint64(data[8+8*i:])] = true
	}
	return nil
}
