package stream

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"activegeo/internal/assess"
	"activegeo/internal/detect"
	"activegeo/internal/netsim"
)

// Audit pipeline stage names, as recorded in ServerError.Stage and the
// fingerprint's failure annotations.
const (
	StageMeasure = "measure"
	StageLocate  = "locate"
)

// Coverage annotates one server's verdict with what its measurement
// campaign lost under fault injection: the audit's answer to "how much
// should this verdict be trusted?". Only servers measured with fault
// injection armed carry one.
type Coverage struct {
	// Planned/Measured count landmarks attempted and landmarks that
	// produced a usable sample.
	Planned  int
	Measured int
	// Retries and ProbeFailures are the resilience layer's work:
	// backoff-retry rounds and failed measurement attempts.
	Retries       int
	ProbeFailures int
	// LostLandmarks are the landmarks that never answered (sorted).
	LostLandmarks []netsim.HostID
	// Disconnected marks a proxy that hung up mid-campaign;
	// BudgetExhausted a campaign cut off by its deadline budget.
	Disconnected    bool
	BudgetExhausted bool
	// Ratio is Measured/Planned; Confidence the derived grade
	// (measure.ConfidenceFull/Degraded/Low).
	Ratio      float64
	Confidence string
}

// Store is the columnar (struct-of-arrays) verdict store: the only
// O(fleet) state the streaming audit keeps. Verdicts, claims and
// candidate sets are interned into small integer columns; the heavy
// per-server artifacts (RTT vectors, prediction regions) never enter the
// store — they live only inside the batch that produced them.
//
// Rows are append-only in first-seen order; re-auditing a server updates
// its row in place, so a pass over an unchanged fleet keeps rows in
// fleet order.
type Store struct {
	mu sync.RWMutex

	ids   []netsim.HostID
	index map[netsim.HostID]int

	// Interning tables. Index 0 of countries is "", so zero-valued
	// columns read back as "no country".
	countries    []string
	countryIdx   map[string]uint16
	providers    []string
	providerIdx  map[string]uint16
	groupKeys    []string
	groupIdx     map[string]uint32
	groupMembers map[uint32][]int // group → rows, insertion order

	// Per-row columns.
	provider []uint16
	claimed  []uint16
	group    []uint32
	sig      []uint64
	assessed []bool
	lastPass []uint32

	raw, dc, final, cont []uint8 // assess.Verdict values
	probableDC           []uint16
	probableFinal        []uint16
	cells                []int32
	nMeas                []uint16
	candidates           [][]uint16 // sorted interned country codes

	errStage []uint8 // 0 none, 1 measure, 2 locate
	errMsg   []string

	coverage map[int]Coverage

	// Adversary-detection columns, populated only while the auditor's
	// plan is armed. advInsp holds each row's manipulation inspection —
	// the raw per-server fit is written by setResult, the judged fields
	// (Suspected/Score/Reasons) by resolveAdversary over the whole
	// population. advExcluded counts the row's measurements dropped for
	// coming from flagged landmarks.
	advArmed    bool
	advFlagged  []netsim.HostID
	advInsp     []detect.Inspection
	advExcluded []int32

	reclassifiedByGroup int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		index:        map[netsim.HostID]int{},
		countries:    []string{""},
		countryIdx:   map[string]uint16{"": 0},
		providers:    []string{""},
		providerIdx:  map[string]uint16{"": 0},
		groupKeys:    []string{""},
		groupIdx:     map[string]uint32{"": 0},
		groupMembers: map[uint32][]int{},
		coverage:     map[int]Coverage{},
	}
}

func (s *Store) internCountry(c string) uint16 {
	if i, ok := s.countryIdx[c]; ok {
		return i
	}
	i := uint16(len(s.countries))
	s.countries = append(s.countries, c)
	s.countryIdx[c] = i
	return i
}

func (s *Store) internProvider(p string) uint16 {
	if i, ok := s.providerIdx[p]; ok {
		return i
	}
	i := uint16(len(s.providers))
	s.providers = append(s.providers, p)
	s.providerIdx[p] = i
	return i
}

func (s *Store) internGroup(g string) uint32 {
	if i, ok := s.groupIdx[g]; ok {
		return i
	}
	i := uint32(len(s.groupKeys))
	s.groupKeys = append(s.groupKeys, g)
	s.groupIdx[g] = i
	return i
}

// Len returns the number of rows.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ids)
}

// ensure returns the row for spec's server, creating it on first sight
// and keeping its group membership current.
func (s *Store) ensure(spec ServerSpec) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	row, ok := s.index[spec.ID]
	if !ok {
		row = len(s.ids)
		s.ids = append(s.ids, spec.ID)
		s.index[spec.ID] = row
		s.provider = append(s.provider, s.internProvider(spec.Provider))
		s.claimed = append(s.claimed, s.internCountry(spec.Claimed))
		s.group = append(s.group, 0)
		s.sig = append(s.sig, 0)
		s.assessed = append(s.assessed, false)
		s.lastPass = append(s.lastPass, 0)
		s.raw = append(s.raw, uint8(assess.Uncertain))
		s.dc = append(s.dc, uint8(assess.Uncertain))
		s.final = append(s.final, uint8(assess.Uncertain))
		s.cont = append(s.cont, uint8(assess.Uncertain))
		s.probableDC = append(s.probableDC, 0)
		s.probableFinal = append(s.probableFinal, 0)
		s.cells = append(s.cells, 0)
		s.nMeas = append(s.nMeas, 0)
		s.candidates = append(s.candidates, nil)
		s.errStage = append(s.errStage, 0)
		s.errMsg = append(s.errMsg, "")
		s.advInsp = append(s.advInsp, detect.Inspection{})
		s.advExcluded = append(s.advExcluded, 0)
	}
	g := s.internGroup(spec.GroupKey)
	if old := s.group[row]; old != g {
		if old != 0 || ok {
			members := s.groupMembers[old]
			for i, r := range members {
				if r == row {
					s.groupMembers[old] = append(members[:i], members[i+1:]...)
					break
				}
			}
		}
		s.group[row] = g
		s.groupMembers[g] = append(s.groupMembers[g], row)
	}
	return row
}

// sigOf returns the row's stored dependency signature and whether the
// row has ever been assessed.
func (s *Store) sigOf(row int) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sig[row], s.assessed[row]
}

// outcome is one server's freshly computed assessment, written into the
// row's columns by setResult.
type outcome struct {
	spec       ServerSpec
	sig        uint64
	pass       uint32
	raw        assess.Verdict
	dc         assess.Verdict
	cont       assess.Verdict
	probable   string
	candidates []string
	cells      int
	nMeas      int
	errStage   string
	errMsg     string
	coverage   *Coverage
	insp       detect.Inspection
	excluded   int
}

func (s *Store) setResult(row int, o outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.provider[row] = s.internProvider(o.spec.Provider)
	s.claimed[row] = s.internCountry(o.spec.Claimed)
	s.sig[row] = o.sig
	s.assessed[row] = true
	s.lastPass[row] = o.pass
	s.raw[row] = uint8(o.raw)
	s.dc[row] = uint8(o.dc)
	s.final[row] = uint8(o.dc) // group disambiguation refines this in resolveGroups
	s.cont[row] = uint8(o.cont)
	p := s.internCountry(o.probable)
	s.probableDC[row] = p
	s.probableFinal[row] = p
	s.cells[row] = int32(o.cells)
	s.nMeas[row] = uint16(o.nMeas)
	if len(o.candidates) == 0 {
		s.candidates[row] = nil
	} else {
		cand := make([]uint16, len(o.candidates))
		for i, c := range o.candidates {
			cand[i] = s.internCountry(c)
		}
		s.candidates[row] = cand
	}
	switch o.errStage {
	case StageMeasure:
		s.errStage[row] = 1
	case StageLocate:
		s.errStage[row] = 2
	default:
		s.errStage[row] = 0
	}
	s.errMsg[row] = o.errMsg
	if o.coverage != nil {
		s.coverage[row] = *o.coverage
	} else {
		delete(s.coverage, row)
	}
	s.advInsp[row] = o.insp
	s.advExcluded[row] = int32(o.excluded)
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
	byID := make(map[string]detect.Inspection, len(s.ids))
	for row, id := range s.ids {
		byID[string(id)] = s.advInsp[row]
	}
	judged := detect.JudgeServers(byID, cfg)
	for row, id := range s.ids {
		s.advInsp[row] = judged[string(id)]
	}
}

// resolveGroups reruns the Figure 16 metadata disambiguation over every
// group, recomputing the final verdicts from the post-data-center
// columns. It is idempotent — deltas from a partial re-audit compose
// with unchanged rows exactly as a full pass would, because the group
// refinement is a pure function of the group's candidate sets. The rule
// is assess.DisambiguateGroup's, over interned columns; a table test
// holds the two equal.
func (s *Store) resolveGroups() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Reset finals to the pre-group verdicts.
	for row := range s.final {
		s.final[row] = s.dc[row]
		s.probableFinal[row] = s.probableDC[row]
	}
	s.reclassifiedByGroup = 0
	gids := make([]int, 0, len(s.groupMembers))
	for g := range s.groupMembers {
		if g != 0 {
			gids = append(gids, int(g))
		}
	}
	sort.Ints(gids)
	common := map[uint16]int{}
	for _, gi := range gids {
		rows := s.groupMembers[uint32(gi)]
		if len(rows) < 2 {
			continue
		}
		for k := range common {
			delete(common, k)
		}
		usable := 0
		for _, row := range rows {
			if s.cells[row] == 0 {
				continue
			}
			usable++
			for _, c := range s.candidates[row] {
				common[c]++
			}
		}
		if usable < 2 {
			continue
		}
		var shared []uint16
		for c, n := range common {
			if n == usable {
				shared = append(shared, c)
			}
		}
		if len(shared) == 0 {
			continue
		}
		// Sort by country code: shared[0] is the ascribed probable
		// country.
		sort.Slice(shared, func(i, j int) bool {
			return s.countries[shared[i]] < s.countries[shared[j]]
		})
		for _, row := range rows {
			if s.cells[row] == 0 || assess.Verdict(s.dc[row]) != assess.Uncertain {
				continue
			}
			claimedShared := false
			for _, c := range shared {
				if c == s.claimed[row] {
					claimedShared = true
					break
				}
			}
			switch {
			case !claimedShared:
				s.final[row] = uint8(assess.False)
			case len(shared) == 1:
				s.final[row] = uint8(assess.Credible)
			}
			s.probableFinal[row] = shared[0]
			if assess.Verdict(s.final[row]) != assess.Uncertain {
				s.reclassifiedByGroup++
			}
		}
	}
}

// Tally aggregates the final verdicts the way assess.Tabulate does,
// straight off the columns — no result materialization.
func (s *Store) Tally() assess.Tally {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tallyLocked()
}

func (s *Store) tallyLocked() assess.Tally {
	var t assess.Tally
	for row := range s.final {
		switch assess.Verdict(s.final[row]) {
		case assess.Credible:
			t.Credible++
		case assess.Uncertain:
			t.Uncertain++
			if assess.Verdict(s.cont[row]) != assess.False {
				t.UncertainSameCont++
			}
		case assess.False:
			t.False++
			if assess.Verdict(s.cont[row]) == assess.False {
				t.FalseOffContinent++
			}
		}
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

// confidenceFull mirrors measure.ConfidenceFull without importing it
// into the hot columnar path's dependencies.
const confidenceFull = "full"

// Stats computes the aggregates.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.statsLocked()
}

func (s *Store) statsLocked() Stats {
	st := Stats{Servers: len(s.ids), ReclassifiedByGroup: s.reclassifiedByGroup}
	for row := range s.ids {
		if assess.Verdict(s.raw[row]) == assess.Uncertain && assess.Verdict(s.dc[row]) != assess.Uncertain {
			st.ReclassifiedByDC++
		}
		switch s.errStage[row] {
		case 1:
			st.MeasureFailures++
		case 2:
			st.LocateFailures++
		}
		if s.advArmed {
			if s.advInsp[row].Suspected {
				st.SuspectedServers++
			}
			st.ExcludedMeasurements += int(s.advExcluded[row])
		}
	}
	for _, c := range s.coverage {
		st.addCoverage(c)
	}
	return st
}

// addCoverage folds one server's coverage annotation into the fault
// aggregates.
func (st *Stats) addCoverage(c Coverage) {
	st.FaultyServers++
	st.Retries += c.Retries
	st.ProbeFailures += c.ProbeFailures
	st.LostLandmarks += len(c.LostLandmarks)
	if c.Disconnected {
		st.Disconnects++
	}
	if c.Confidence != confidenceFull {
		st.DegradedServers++
	}
}

// VerdictOf returns the final verdict and probable country for one
// server (ok=false if the server was never seen).
func (s *Store) VerdictOf(id netsim.HostID) (v assess.Verdict, probable string, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row, found := s.index[id]
	if !found {
		return 0, "", false
	}
	return assess.Verdict(s.final[row]), s.countries[s.probableFinal[row]], true
}

// InspectionOf returns one server's judged manipulation inspection
// (ok=false if the server was never seen). Meaningful only while the
// auditor's adversary plan is armed; on the honest path it is zero.
func (s *Store) InspectionOf(id netsim.HostID) (detect.Inspection, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row, found := s.index[id]
	if !found {
		return detect.Inspection{}, false
	}
	return s.advInsp[row], true
}

// CoverageOf returns one server's fault-injection coverage annotation
// (ok=false if the server has none: never seen, measured fault-free, or
// failed before its campaign produced a ledger).
func (s *Store) CoverageOf(id netsim.HostID) (Coverage, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row, found := s.index[id]
	if !found {
		return Coverage{}, false
	}
	c, ok := s.coverage[row]
	return c, ok
}

// LastPass returns the Sync pass (1-based) in which the server was last
// measured, 0 if never.
func (s *Store) LastPass(id netsim.HostID) uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row, found := s.index[id]
	if !found {
		return 0
	}
	return s.lastPass[row]
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
	for row, id := range s.ids {
		var cand []string
		if cs := s.candidates[row]; len(cs) > 0 {
			cand = make([]string, len(cs))
			for i, c := range cs {
				cand[i] = s.countries[c]
			}
		}
		fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%v|%d", id,
			assess.Verdict(s.raw[row]), assess.Verdict(s.final[row]),
			assess.Verdict(s.cont[row]), s.countries[s.probableFinal[row]],
			cand, s.cells[row])
		switch s.errStage[row] {
		case 1:
			fmt.Fprintf(&b, "|err:%s:%s", StageMeasure, s.errMsg[row])
		case 2:
			fmt.Fprintf(&b, "|err:%s:%s", StageLocate, s.errMsg[row])
		}
		if c, ok := s.coverage[row]; ok {
			fmt.Fprintf(&b, "|cov:%d/%d:r%d:f%d:lost%v:disc%v:budget%v:%.4f:%s",
				c.Measured, c.Planned, c.Retries, c.ProbeFailures, c.LostLandmarks,
				c.Disconnected, c.BudgetExhausted, c.Ratio, c.Confidence)
		}
		// Adversary annotations only exist when the plan is armed, so the
		// honest fingerprint is byte-identical to the pre-adversary one.
		if s.advArmed {
			insp := s.advInsp[row]
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
