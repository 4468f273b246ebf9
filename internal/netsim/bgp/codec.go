package bgp

import (
	"context"
	"fmt"

	"sisyphus/internal/netsim/topo"
)

// Export is the serialized form of a converged RIB: destinations ascending,
// and within each destination the per-AS chosen routes ascending by AS.
// Both levels are slices, not maps, so a deterministic encoder yields
// identical bytes for identical fixed points. The topology, relationship
// map and policy are not serialized — an imported RIB rebinds to a topology
// the caller supplies, exactly like Fork does.
type Export struct {
	Dests []ExportDest
}

// ExportDest is one destination's routing table.
type ExportDest struct {
	Dest   topo.ASN
	Routes []ExportRoute
}

// ExportRoute is one AS's chosen route. Unreachable marks an AS whose table
// entry exists but holds no route (a fixed point can converge to "withdrawn")
// so import reproduces the table byte-for-byte rather than dropping entries.
type ExportRoute struct {
	AS          topo.ASN
	Unreachable bool
	Path        []topo.ASN
	LocalPref   int
}

// Export snapshots the RIB's computed tables into their serialized form. A
// RIB from Compute or Import is complete; a lazy RIB exports the
// destinations it has computed so far.
func (r *RIB) Export() *Export {
	e := &Export{}
	for d := range r.c.slots {
		tbl := r.c.slots[d].tbl.Load()
		if tbl == nil {
			continue
		}
		ed := ExportDest{Dest: r.c.asns[d]}
		for i, st := range tbl.state {
			er := ExportRoute{AS: r.c.asns[i]}
			switch st {
			case absent:
				continue
			case withdrawn:
				er.Unreachable = true
			case routed:
				er.Path = append([]topo.ASN(nil), tbl.routes[i].Path...)
				er.LocalPref = tbl.routes[i].LocalPref
			}
			ed.Routes = append(ed.Routes, er)
		}
		e.Dests = append(e.Dests, ed)
	}
	return e
}

// Import reconstructs a RIB from its serialized form, rebinding it onto t —
// which must be a topology equivalent to the one the fixed point was
// computed over — with the default (empty) policy, mirroring what Compute
// produces for the same inputs. The export must hold a table for every AS
// of t, so an imported RIB is complete; duplicate, unknown or missing
// destinations and duplicate or unknown per-destination ASes are rejected,
// never panicked on.
func Import(e *Export, t *topo.Topology) (*RIB, error) {
	if e == nil {
		return nil, fmt.Errorf("bgp: import: nil export")
	}
	if t == nil {
		return nil, fmt.Errorf("bgp: import: nil topology")
	}
	r, err := newRIB(context.Background(), t, nil)
	if err != nil {
		return nil, fmt.Errorf("bgp: import: %w", err)
	}
	c := r.c
	for _, ed := range e.Dests {
		d, ok := c.index(ed.Dest)
		if !ok {
			return nil, fmt.Errorf("bgp: import: unknown destination AS%d", ed.Dest)
		}
		if c.slots[d].tbl.Load() != nil {
			return nil, fmt.Errorf("bgp: import: duplicate destination AS%d", ed.Dest)
		}
		tbl := &table{routes: make([]Route, len(c.asns)), state: make([]uint8, len(c.asns))}
		for _, er := range ed.Routes {
			i, ok := c.index(er.AS)
			if !ok {
				return nil, fmt.Errorf("bgp: import: destination AS%d lists unknown AS%d", ed.Dest, er.AS)
			}
			if tbl.state[i] != absent {
				return nil, fmt.Errorf("bgp: import: destination AS%d lists AS%d twice", ed.Dest, er.AS)
			}
			if er.Unreachable {
				tbl.state[i] = withdrawn
				continue
			}
			tbl.state[i] = routed
			tbl.routes[i] = Route{Dest: ed.Dest, LocalPref: er.LocalPref}
			if len(er.Path) > 0 {
				tbl.routes[i].Path = append([]topo.ASN(nil), er.Path...)
			}
		}
		c.slots[d].tbl.Store(tbl)
	}
	for d := range c.slots {
		if c.slots[d].tbl.Load() == nil {
			return nil, fmt.Errorf("bgp: import: no table for destination AS%d", c.asns[d])
		}
	}
	return r, nil
}
