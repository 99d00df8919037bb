package sim

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// Phase-time attribution: every cell execution decomposes its wall time
// into a small fixed taxonomy of phases, so the scheduler, the bench
// harness and the HTTP status surface can answer "where does grid time
// go" automatically instead of by hand-profiling. Attribution is
// measured at phase-segment granularity (a handful of time.Now calls
// per cell, never per instruction) and the remainder of a cell's wall
// time that no finer phase claimed is banked as build time, so the
// per-cell sum tracks the measured wall closely. Each segment is also
// reported to the event stream as it completes (EvCellPhase, events.go).

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
