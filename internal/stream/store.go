package stream

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"activegeo/internal/assess"
	"activegeo/internal/detect"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
)

// Audit pipeline stage names, as recorded in ServerError.Stage and the
// fingerprint's failure annotations.
const (
	StageMeasure = "measure"
	StageLocate  = "locate"
)

// Store is the verdict store: one row per server, the only O(fleet)
// state the streaming audit keeps. The heavy per-server artifacts (RTT
// vectors, prediction regions) never enter the store — they live only
// inside the batch that produced them.
//
// Rows are append-only in first-seen order; re-auditing a server updates
// its row in place, so a pass over an unchanged fleet keeps rows in
// fleet order.
type Store struct {
	mu sync.RWMutex

	rows  []row
	index map[netsim.HostID]int
	// groups maps each non-empty group key to its members' rows.
	groups map[string][]int

	// advArmed switches the fingerprint's adversary annotations on;
	// advFlagged is the pass's sorted flagged-landmark set.
	advArmed   bool
	advFlagged []netsim.HostID

	reclassifiedByGroup int
}

// row is one server's assessment. runBatch builds it and setResult
// writes it; resolveGroups refines final and probableFinal from the
// post-data-center dc and probableDC, and resolveAdversary judges insp.
type row struct {
	id      netsim.HostID
	claimed string
	group   string
	sig     uint64
	pass    uint32 // the Sync pass that wrote the row, 0 if never

	raw, dc, final, cont assess.Verdict

	probableDC, probableFinal string
	// candidates is every country the region overlaps, sorted, as
	// assess.Assess returned it; cells is the region's size.
	candidates []string
	cells      int32
	// excluded counts the measurements dropped for coming from flagged
	// landmarks.
	excluded int32

	errStage, errMsg string

	// deg is a copy of the measurement's fault ledger (nil when it ran
	// fault-free or failed before producing one).
	deg *measure.Degradation
	// insp is the manipulation inspection, set only while the adversary
	// layer is armed.
	insp *detect.Inspection
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{index: map[netsim.HostID]int{}, groups: map[string][]int{}}
}

// ensure returns the row for spec's server, creating it on first sight
// and keeping its group membership current.
func (s *Store) ensure(spec ServerSpec) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[spec.ID]
	if !ok {
		i = len(s.rows)
		u := assess.Uncertain
		s.rows = append(s.rows, row{id: spec.ID, claimed: spec.Claimed, raw: u, dc: u, final: u, cont: u})
		s.index[spec.ID] = i
	}
	r := &s.rows[i]
	if r.group != spec.GroupKey {
		if members := slices.DeleteFunc(s.groups[r.group], func(m int) bool { return m == i }); len(members) > 0 {
			s.groups[r.group] = members
		} else {
			delete(s.groups, r.group)
		}
		r.group = spec.GroupKey
		if r.group != "" {
			s.groups[r.group] = append(s.groups[r.group], i)
		}
	}
	return i
}

// sigOf returns the row's stored dependency signature and whether the
// row has ever been assessed.
func (s *Store) sigOf(i int) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rows[i].sig, s.rows[i].pass > 0
}

// setResult writes a freshly assessed row. Its group stays the one
// ensure recorded, which the membership map is keyed by, and its final
// verdict starts as the post-data-center one.
func (s *Store) setResult(i int, r row) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.group = s.rows[i].group
	r.final, r.probableFinal = r.dc, r.probableDC // resolveGroups refines these
	s.rows[i] = r
}

// setAdversary records the current pass's adversary state: whether the
// detection layer is armed (which switches the fingerprint's adversary
// annotations on) and the sorted flagged-landmark set.
func (s *Store) setAdversary(armed bool, flagged []netsim.HostID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advArmed = armed
	s.advFlagged = append(s.advFlagged[:0], flagged...)
}

// resolveAdversary re-judges every row's manipulation inspection against
// the whole store's population with detect.JudgeServers: the honest
// majority of servers calibrates the spread/shift gates, so a noisy
// network doesn't read as an attack and a quiet one doesn't hide it.
// Like resolveGroups it is idempotent — the judged fields are a pure
// function of the raw per-row fits, so deltas from a partial re-audit
// compose exactly as a full pass would.
func (s *Store) resolveAdversary(cfg detect.InspectConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.advArmed {
		return
	}
	byID := make(map[string]detect.Inspection, len(s.rows))
	for i := range s.rows {
		byID[string(s.rows[i].id)] = s.rows[i].inspection()
	}
	judged := detect.JudgeServers(byID, cfg)
	for i := range s.rows {
		insp := judged[string(s.rows[i].id)]
		s.rows[i].insp = &insp
	}
}

// inspection returns the row's inspection, zero when it has none.
func (r *row) inspection() detect.Inspection {
	if r.insp == nil {
		return detect.Inspection{}
	}
	return *r.insp
}

// resolveGroups reruns the Figure 16 metadata disambiguation
// (assess.GroupShared and assess.Regroup) over every group, recomputing
// the final verdicts from the post-data-center ones. It is idempotent —
// deltas from a partial re-audit compose with unchanged rows exactly as
// a full pass would, because the group refinement is a pure function of
// the group's candidate sets. Groups are disjoint, so their order does
// not matter.
func (s *Store) resolveGroups() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.rows {
		r := &s.rows[i]
		r.final, r.probableFinal = r.dc, r.probableDC
	}
	s.reclassifiedByGroup = 0
	for _, members := range s.groups {
		sets := make([][]string, 0, len(members))
		for _, i := range members {
			if s.rows[i].cells > 0 {
				sets = append(sets, s.rows[i].candidates)
			}
		}
		shared := assess.GroupShared(sets)
		if len(shared) == 0 {
			continue
		}
		for _, i := range members {
			r := &s.rows[i]
			if r.cells == 0 || r.dc != assess.Uncertain {
				continue
			}
			r.final, r.probableFinal = assess.Regroup(r.claimed, shared)
			if r.final != assess.Uncertain {
				s.reclassifiedByGroup++
			}
		}
	}
}

// Tally aggregates the final verdicts the way assess.Tabulate does.
func (s *Store) Tally() assess.Tally {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tallyLocked()
}

func (s *Store) tallyLocked() assess.Tally {
	var t assess.Tally
	for i := range s.rows {
		t.Add(s.rows[i].final, s.rows[i].cont)
	}
	return t
}

// Stats are the store-wide aggregates of the audit.
type Stats struct {
	Servers             int
	ReclassifiedByDC    int
	ReclassifiedByGroup int
	MeasureFailures     int
	LocateFailures      int

	// Fault-resilience aggregates over the servers measured with fault
	// injection armed (FaultyServers); DegradedServers counts those
	// whose confidence is not "full".
	Retries         int
	ProbeFailures   int
	LostLandmarks   int
	Disconnects     int
	DegradedServers int
	FaultyServers   int

	// Adversary-detection aggregates (zero while disarmed): servers
	// judged manipulation-suspected, and measurements dropped for coming
	// from flagged landmarks.
	SuspectedServers     int
	ExcludedMeasurements int
}

// add folds one row into the per-server aggregates.
func (st *Stats) add(r *row) {
	st.Servers++
	if r.raw == assess.Uncertain && r.dc != assess.Uncertain {
		st.ReclassifiedByDC++
	}
	switch r.errStage {
	case StageMeasure:
		st.MeasureFailures++
	case StageLocate:
		st.LocateFailures++
	}
	if r.insp != nil && r.insp.Suspected {
		st.SuspectedServers++
	}
	st.ExcludedMeasurements += int(r.excluded)
	if d := r.deg; d != nil {
		st.FaultyServers++
		st.Retries += d.Retries
		st.ProbeFailures += d.ProbeFailures
		st.LostLandmarks += len(d.LostLandmarks)
		if d.Disconnected {
			st.Disconnects++
		}
		if d.Confidence() != measure.ConfidenceFull {
			st.DegradedServers++
		}
	}
}

// Stats computes the aggregates.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.statsLocked()
}

func (s *Store) statsLocked() Stats {
	st := Stats{ReclassifiedByGroup: s.reclassifiedByGroup}
	for i := range s.rows {
		st.add(&s.rows[i])
	}
	return st
}

// lookup returns a copy of the server's row (ok=false if the server was
// never seen).
func (s *Store) lookup(id netsim.HostID) (row, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.index[id]
	if !ok {
		return row{}, false
	}
	return s.rows[i], true
}

// VerdictOf returns the final verdict and probable country for one
// server (ok=false if the server was never seen).
func (s *Store) VerdictOf(id netsim.HostID) (v assess.Verdict, probable string, ok bool) {
	r, ok := s.lookup(id)
	return r.final, r.probableFinal, ok
}

// InspectionOf returns one server's judged manipulation inspection
// (ok=false if the server was never seen). Meaningful only while the
// auditor's adversary plan is armed; on the honest path it is zero.
func (s *Store) InspectionOf(id netsim.HostID) (detect.Inspection, bool) {
	r, ok := s.lookup(id)
	return r.inspection(), ok
}

// CoverageOf returns one server's fault ledger: nil if it was never
// seen, measured fault-free, or failed before its campaign produced one.
func (s *Store) CoverageOf(id netsim.HostID) *measure.Degradation {
	r, _ := s.lookup(id)
	return r.deg
}

// LastPass returns the Sync pass (1-based) in which the server was last
// measured, 0 if never.
func (s *Store) LastPass(id netsim.HostID) uint32 {
	r, _ := s.lookup(id)
	return r.pass
}

// Fingerprint serializes everything observable about the store's audit:
// per-server verdict lines in row order (with failure, coverage and
// adversary annotations), the aggregate tally line, the faults line when
// any coverage annotations exist, and the adversary line when armed. Two
// audits are identical iff their fingerprints are byte-equal; the
// experiments tests pin a golden SHA-256 of it.
func (s *Store) Fingerprint() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b strings.Builder
	for i := range s.rows {
		r := &s.rows[i]
		fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%v|%d", r.id, r.raw, r.final, r.cont,
			r.probableFinal, r.candidates, r.cells)
		if r.errStage != "" {
			fmt.Fprintf(&b, "|err:%s:%s", r.errStage, r.errMsg)
		}
		if d := r.deg; d != nil {
			fmt.Fprintf(&b, "|cov:%d/%d:r%d:f%d:lost%v:disc%v:budget%v:%.4f:%s",
				d.Measured, d.Planned, d.Retries, d.ProbeFailures, d.LostLandmarks,
				d.Disconnected, d.BudgetExhausted, d.Coverage(), d.Confidence())
		}
		// Adversary annotations only exist when the plan is armed, so the
		// honest fingerprint is byte-identical to the pre-adversary one.
		if s.advArmed {
			insp := r.inspection()
			fmt.Fprintf(&b, "|adv:%v:%.4f:%v", insp.Suspected, insp.Score, insp.Reasons)
		}
		b.WriteByte('\n')
	}
	t := s.tallyLocked()
	st := s.statsLocked()
	fmt.Fprintf(&b, "tally:%d/%d/%d offcont:%d samecont:%d dc:%d group:%d mfail:%d lfail:%d\n",
		t.Credible, t.Uncertain, t.False, t.FalseOffContinent, t.UncertainSameCont,
		st.ReclassifiedByDC, st.ReclassifiedByGroup, st.MeasureFailures, st.LocateFailures)
	if st.FaultyServers > 0 {
		fmt.Fprintf(&b, "faults: retries:%d probefail:%d lost:%d disc:%d degraded:%d\n",
			st.Retries, st.ProbeFailures, st.LostLandmarks, st.Disconnects, st.DegradedServers)
	}
	if s.advArmed {
		fmt.Fprintf(&b, "adversary: flagged:%v excluded:%d suspected:%d\n",
			s.advFlagged, st.ExcludedMeasurements, st.SuspectedServers)
	}
	return b.String()
}
