package sim

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
)

// Phase-time attribution: every cell execution decomposes its wall time
// into a small fixed taxonomy of phases, so the scheduler, the bench
// harness and the HTTP status surface can answer "where does grid time
// go" automatically instead of by hand-profiling. Attribution is
// measured at phase-segment granularity (a handful of time.Now calls
// per cell, never per instruction) and the remainder of a cell's wall
// time that no finer phase claimed is banked as build time, so the
// per-cell sum tracks the measured wall closely.
//
// The same file carries the observability hooks the grid journal taps:
// one completed phase segment and one artifact-store resolution each
// become a hook event, published behind a single atomic nil check so a
// run without a journal pays nothing (no allocation, no lock).

// Phase names one slice of a cell's wall-time decomposition.
type Phase uint8

// The phases of a cell's life, in display order.
const (
	// PhaseBuild: constructing workload images, machines, and any wall
	// time no finer phase claimed (the attribution remainder).
	PhaseBuild Phase = iota
	// PhaseFastForward: functional fast-forward — producing the shared
	// checkpoints regions start at (cachedStart: the first fast-forward,
	// and for each later region the previous window and the gap), banked
	// by the cell that produced each, and the head of a gap an IMP or
	// SVR cell warms itself (settle).
	PhaseFastForward
	// PhaseRecord: producing a shared instruction-stream recording.
	PhaseRecord
	// PhaseDecode: decoding recorded streams into SoA batches.
	PhaseDecode
	// PhaseTiming: stepping timing models over the measurement window.
	PhaseTiming
	// PhaseStoreWait: blocked joining another caller's in-flight
	// production of an artifact this cell needed.
	PhaseStoreWait
	// NumPhases bounds the enum; PhaseTimes is indexed by Phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"build", "fast-forward", "record", "decode", "timing", "store-wait",
}

// String returns the wire spelling of the phase (journal, JSON, tables).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// ParsePhase maps a wire spelling back to its Phase.
func ParsePhase(s string) (Phase, error) {
	for p, n := range phaseNames {
		if n == s {
			return Phase(p), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown phase %q", s)
}

// AllPhases lists every phase in display order.
func AllPhases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// PhaseTimes is a per-phase wall-time decomposition, indexed by Phase.
// The zero value is empty and ready to use.
type PhaseTimes [NumPhases]time.Duration

// Add banks d into phase p.
func (t *PhaseTimes) Add(p Phase, d time.Duration) {
	if p < NumPhases {
		t[p] += d
	}
}

// AddAll folds o into t.
func (t *PhaseTimes) AddAll(o PhaseTimes) {
	for p := range t {
		t[p] += o[p]
	}
}

// Total returns the sum over all phases.
func (t PhaseTimes) Total() time.Duration {
	var sum time.Duration
	for _, d := range t {
		sum += d
	}
	return sum
}

// Split returns t divided evenly by k — a cohort's shared production
// cost apportioned to each member.
func (t PhaseTimes) Split(k int) PhaseTimes {
	if k <= 1 {
		return t
	}
	var out PhaseTimes
	for p, d := range t {
		out[p] = d / time.Duration(k)
	}
	return out
}

// MarshalJSON renders the decomposition as {"build": ns, ...} with every
// phase present (stable schema) and durations in nanoseconds.
func (t PhaseTimes) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16*NumPhases)
	b = append(b, '{')
	for p, d := range t {
		if p > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, phaseNames[p])
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON parses the MarshalJSON form; unknown phases are ignored
// and missing phases read as zero.
func (t *PhaseTimes) UnmarshalJSON(data []byte) error {
	m := map[string]int64{}
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for p, n := range phaseNames {
		t[p] = time.Duration(m[n])
	}
	return nil
}

// CellPhaseEvent reports one completed phase segment of one cell to the
// observability hook: the cell spent Dur in Phase, ending now.
type CellPhaseEvent struct {
	Label    string // configuration label of the cell doing the work
	Workload string
	Phase    Phase
	Dur      time.Duration
}

// ArtifactEvent reports one artifact-store resolution made on behalf of
// a cell: a resident hit, a join of another caller's in-flight
// production (Waited), or a production by this cell (neither). Dur is
// the caller's wall time on the resolution.
type ArtifactEvent struct {
	Label    string // configuration label of the consuming cell ("" for shared passes)
	Workload string
	Key      artifact.Key
	Hit      bool
	Waited   bool
	Dur      time.Duration
}

// The hooks are atomic.Pointer-published function values: emission sites
// pay one atomic load and branch when no observer is installed, which
// keeps the journal-off path allocation-free (guarded by a test).
var (
	cellPhaseHook atomic.Pointer[func(CellPhaseEvent)]
	artifactHook  atomic.Pointer[func(ArtifactEvent)]
)

// SetCellPhaseHook installs fn to observe completed phase segments (nil
// disables). The grid journal is the intended consumer; fn must be safe
// for concurrent calls.
func SetCellPhaseHook(fn func(CellPhaseEvent)) {
	if fn == nil {
		cellPhaseHook.Store(nil)
		return
	}
	cellPhaseHook.Store(&fn)
}

// SetArtifactHook installs fn to observe artifact-store resolutions made
// by cell execution (nil disables). fn must be safe for concurrent calls.
func SetArtifactHook(fn func(ArtifactEvent)) {
	if fn == nil {
		artifactHook.Store(nil)
		return
	}
	artifactHook.Store(&fn)
}

// emitPhase publishes one completed phase segment to the hook.
func emitPhase(label, workload string, p Phase, d time.Duration) {
	if fn := cellPhaseHook.Load(); fn != nil {
		(*fn)(CellPhaseEvent{Label: label, Workload: workload, Phase: p, Dur: d})
	}
}

// emitArtifact publishes one artifact resolution to the hook.
func emitArtifact(label, workload string, k artifact.Key, oc artifact.Outcome, d time.Duration) {
	if fn := artifactHook.Load(); fn != nil {
		(*fn)(ArtifactEvent{Label: label, Workload: workload, Key: k,
			Hit: oc.Hit, Waited: oc.Waited, Dur: d})
	}
}

// phaseCtx threads phase attribution through the cell core: the cell's
// identity (for hook events) plus the accumulator the durations land in
// (usually the CellOutcome's Phases). All methods are nil-safe, so
// callers that don't attribute (tests, one-off helpers) pass nil.
type phaseCtx struct {
	label    string
	workload string
	ph       *PhaseTimes
}

// add banks one completed phase segment and publishes it to the hook.
func (pc *phaseCtx) add(p Phase, d time.Duration) {
	if pc == nil || d <= 0 {
		return
	}
	pc.ph.Add(p, d)
	emitPhase(pc.label, pc.workload, p, d)
}

// total returns the time attributed so far.
func (pc *phaseCtx) total() time.Duration {
	if pc == nil {
		return 0
	}
	return pc.ph.Total()
}

// artifact publishes one store resolution under this cell's identity.
func (pc *phaseCtx) artifact(k artifact.Key, oc artifact.Outcome, d time.Duration) {
	if pc == nil {
		emitArtifact("", "", k, oc, d)
		return
	}
	emitArtifact(pc.label, pc.workload, k, oc, d)
}
