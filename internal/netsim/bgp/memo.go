package bgp

import (
	"context"

	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/obs"
)

// memoSize bounds a Memo. An engine revisits a handful of routing states:
// the factual policy before and after an egress shift, and the two forced
// arms of a what-if contrast against each. Measured on perfbench's
// query-cold workload (2-core Xeon), 8 slots answer 99% of lookups and give
// 4x the throughput of no memo; 4 slots miss twice as often, and 16 add no
// throughput but raise the peak heap.
const memoSize = 8

// Memo is a small LRU of lazy RIBs keyed by routing state: the topology,
// its link-state version and the policy's fingerprint. A state seen again
// gets back the same RIB with whatever tables it has already computed. The
// zero value is empty and ready to use; a Memo is not safe for concurrent
// use (the RIBs it hands out are).
type Memo struct {
	entries []memoEntry // least recently used first
}

type memoEntry struct {
	topo    *topo.Topology
	version uint64
	policy  string
	rib     *RIB
}

// RIB returns routing for pol (nil means the default policy) over t's
// current link state: the memoised RIB when this state was seen before,
// else a new lazy RIB whose tables compute under ctx as lookups need them.
// Each call counts as a bgp.memo.hits or bgp.memo.misses on ctx's recorder.
func (m *Memo) RIB(ctx context.Context, t *topo.Topology, pol *Policy) (*RIB, error) {
	key := memoEntry{topo: t, version: t.Version(), policy: pol.fingerprint()}
	for i, e := range m.entries {
		if e.topo == key.topo && e.version == key.version && e.policy == key.policy {
			obs.Add(ctx, "bgp.memo.hits", 1)
			copy(m.entries[i:], m.entries[i+1:])
			m.entries[len(m.entries)-1] = e
			return e.rib, nil
		}
	}
	obs.Add(ctx, "bgp.memo.misses", 1)
	rib, err := newRIB(ctx, t, pol)
	if err != nil {
		return nil, err
	}
	key.rib = rib
	m.add(key)
	return rib, nil
}

// Add records rib as routing for pol over its topology's current link
// state — how a pre-converged RIB seeds the memo.
func (m *Memo) Add(pol *Policy, rib *RIB) {
	m.add(memoEntry{topo: rib.Topo, version: rib.Topo.Version(), policy: pol.fingerprint(), rib: rib})
}

func (m *Memo) add(e memoEntry) {
	if len(m.entries) == memoSize {
		copy(m.entries, m.entries[1:])
		m.entries = m.entries[:memoSize-1]
	}
	m.entries = append(m.entries, e)
}
