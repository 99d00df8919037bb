package grid

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The lifecycle journal writes sim's event stream down: installed with
// SetJournal, it subscribes to the stream and turns every event — jobs
// entering and leaving, cells moving through their phases, the artifact
// store serving or evicting — into one JSONL line with a monotonic
// timestamp, and can keep the lines in memory for the Perfetto grid
// trace (gridtrace.go). Folding a captured journal back into a
// sim.StatusFold gives the status the live stream gave.

// Journal event vocabulary, one name per sim event kind. Field usage per
// family:
//
//	job.submit    {job, n: cells, note: job name}
//	job.cancel    {job, note: "shutdown" when a shutdown abandoned its queued cells}
//	job.resume    {job, n: re-enqueued cells}
//	job.done      {job, dur_ns: submit→finish wall}
//	cell.queue    {job, cell, seq}
//	cell.start    {job, cell, seq, worker, dur_ns: queue wait}
//	cell.finish   {job, cell, seq, worker, dur_ns: wall, n: instructions, note: outcome}
//	cohort.start  {job, worker, n: width}
//	cohort.finish {job, worker, n: width, dur_ns}
//	phase.start   {job, cell, phase}
//	cell.phase    {job, cell, phase, dur_ns}
//	artifact.hit / artifact.join / artifact.produce
//	              {job, cell, class, key, dur_ns}
//	artifact.evict{class, key, n: bytes}
//
// Every event but artifact.evict carries the job it belongs to, and a
// job's cell.finish events all come before its job.done. A running
// cohort's phase.start and cell.phase events name the cell it speaks
// for, its first claim (see sim.Event).
const (
	EvJobSubmit     = "job.submit"
	EvJobCancel     = "job.cancel"
	EvJobResume     = "job.resume"
	EvJobDone       = "job.done"
	EvCellQueue     = "cell.queue"
	EvCellStart     = "cell.start"
	EvCellFinish    = "cell.finish"
	EvCohortStart   = "cohort.start"
	EvCohortFinish  = "cohort.finish"
	EvPhaseStart    = "phase.start"
	EvCellPhase     = "cell.phase"
	EvArtifactHit   = "artifact.hit"
	EvArtifactJoin  = "artifact.join"
	EvArtifactProd  = "artifact.produce"
	EvArtifactEvict = "artifact.evict"
)

// evNames spells each sim event kind.
var evNames = [sim.NumKinds]string{
	sim.EvJobSubmit: EvJobSubmit, sim.EvJobCancel: EvJobCancel,
	sim.EvJobResume: EvJobResume, sim.EvJobDone: EvJobDone,
	sim.EvCellQueue: EvCellQueue, sim.EvCellStart: EvCellStart,
	sim.EvCellFinish: EvCellFinish, sim.EvCohortStart: EvCohortStart,
	sim.EvCohortFinish: EvCohortFinish, sim.EvPhaseStart: EvPhaseStart,
	sim.EvCellPhase: EvCellPhase, sim.EvArtifactHit: EvArtifactHit,
	sim.EvArtifactJoin: EvArtifactJoin, sim.EvArtifactProduce: EvArtifactProd,
	sim.EvArtifactEvict: EvArtifactEvict,
}

// JournalEvent is one journal line. TS is nanoseconds since the journal
// opened, monotonic and nondecreasing across the whole stream. Zero-value
// fields are omitted on the wire and read back as zero — no information
// is lost because the zero is the value.
type JournalEvent struct {
	TS     int64  `json:"ts"`
	Ev     string `json:"ev"`
	Job    string `json:"job,omitempty"`
	Cell   string `json:"cell,omitempty"` // "label/workload"
	Seq    int    `json:"seq,omitempty"`  // cell index within the job grid
	Worker int    `json:"worker,omitempty"`
	Phase  string `json:"phase,omitempty"`
	Class  string `json:"class,omitempty"`
	Key    string `json:"key,omitempty"`
	DurNS  int64  `json:"dur_ns,omitempty"`
	N      int64  `json:"n,omitempty"`
	Note   string `json:"note,omitempty"`
}

// appendJSON renders ev exactly as encoding/json would (same field order,
// same omitempty semantics) without an allocation per event.
func appendJSON(b []byte, ev JournalEvent) []byte {
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, ev.TS, 10)
	b = append(b, `,"ev":`...)
	b = strconv.AppendQuote(b, ev.Ev)
	appendStr := func(name, v string) {
		if v != "" {
			b = append(b, ',', '"')
			b = append(b, name...)
			b = append(b, '"', ':')
			b = strconv.AppendQuote(b, v)
		}
	}
	appendInt := func(name string, v int64) {
		if v != 0 {
			b = append(b, ',', '"')
			b = append(b, name...)
			b = append(b, '"', ':')
			b = strconv.AppendInt(b, v, 10)
		}
	}
	appendStr("job", ev.Job)
	appendStr("cell", ev.Cell)
	appendInt("seq", int64(ev.Seq))
	appendInt("worker", int64(ev.Worker))
	appendStr("phase", ev.Phase)
	appendStr("class", ev.Class)
	appendStr("key", ev.Key)
	appendInt("dur_ns", ev.DurNS)
	appendInt("n", ev.N)
	appendStr("note", ev.Note)
	return append(b, '}')
}

// JournalConfig configures a Journal: where the JSONL stream goes and how
// much of it to retain in memory for rendering traces.
type JournalConfig struct {
	// Writer receives the JSONL stream (nil: no streaming).
	Writer io.Writer
	// Capture retains events in memory for Events(): 0 keeps nothing,
	// n > 0 keeps a ring of the last n events, n < 0 keeps everything.
	Capture int
}

// Journal is an append-only, monotonically timestamped event stream.
// record is safe for concurrent use; the write path shares one buffer
// under the journal lock, so a streamed event costs one buffer render
// plus a buffered write.
type Journal struct {
	mu    sync.Mutex
	start time.Time
	last  int64 // last timestamp issued; enforces nondecreasing order
	sink  *trace.JSONL
	buf   []byte

	capn int            // >0: ring capacity; <0: unbounded
	ring []JournalEvent // capn > 0
	n    int            // total events offered to the ring
	all  []JournalEvent // capn < 0
}

// NewJournal opens a journal. Close it to flush the stream.
func NewJournal(cfg JournalConfig) *Journal {
	j := &Journal{start: time.Now(), capn: cfg.Capture}
	if cfg.Writer != nil {
		j.sink = trace.NewJSONL(cfg.Writer)
		j.buf = make([]byte, 0, 256)
	}
	if cfg.Capture > 0 {
		j.ring = make([]JournalEvent, cfg.Capture)
	}
	return j
}

// observe is the journal's subscription to the event stream.
func (j *Journal) observe(ev sim.Event) { j.record(journalEvent(ev)) }

// record stamps ev and appends it to the stream and the capture buffer.
func (j *Journal) record(ev JournalEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ts := time.Since(j.start).Nanoseconds()
	if ts < j.last {
		ts = j.last
	}
	j.last = ts
	ev.TS = ts
	if j.sink != nil {
		j.buf = appendJSON(j.buf[:0], ev)
		j.sink.EmitRaw(j.buf)
	}
	switch {
	case j.capn < 0:
		j.all = append(j.all, ev)
	case j.capn > 0:
		j.ring[j.n%j.capn] = ev
		j.n++
	}
}

// Captures reports whether the journal retains events for Events().
func (j *Journal) Captures() bool { return j.capn != 0 }

// Events returns the captured events in chronological order (the full
// stream, or the tail that fit the capture ring).
func (j *Journal) Events() []JournalEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.capn < 0 {
		out := make([]JournalEvent, len(j.all))
		copy(out, j.all)
		return out
	}
	if j.capn == 0 {
		return nil
	}
	n := j.n
	if n > j.capn {
		n = j.capn
	}
	out := make([]JournalEvent, 0, n)
	for i := j.n - n; i < j.n; i++ {
		out = append(out, j.ring[i%j.capn])
	}
	return out
}

// Close flushes the stream and reports its first write error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sink == nil {
		return nil
	}
	return j.sink.Close()
}

// activeJournal is the installed journal, subscribed to the event
// stream through unsubscribe.
var activeJournal struct {
	sync.Mutex
	j           *Journal
	unsubscribe func()
}

// SetJournal installs j as the process-wide journal, subscribing it to
// sim's event stream in place of the previous one (nil uninstalls).
// Install before submitting work: events emitted earlier are not written.
func SetJournal(j *Journal) {
	activeJournal.Lock()
	defer activeJournal.Unlock()
	if activeJournal.unsubscribe != nil {
		activeJournal.unsubscribe()
		activeJournal.unsubscribe = nil
	}
	activeJournal.j = j
	if j != nil {
		activeJournal.unsubscribe = sim.Subscribe(j.observe)
	}
}

// ActiveJournal returns the installed journal (nil if none).
func ActiveJournal() *Journal {
	activeJournal.Lock()
	defer activeJournal.Unlock()
	return activeJournal.j
}

// cellName renders the journal identity of a cell.
func cellName(label, workload string) string {
	if label == "" && workload == "" {
		return ""
	}
	return label + "/" + workload
}

// journalEvent renders a stream event as its journal line (TS unset).
func journalEvent(ev sim.Event) JournalEvent {
	je := JournalEvent{Ev: evNames[ev.Kind], Job: ev.Job,
		Cell: cellName(ev.Label, ev.Workload), Seq: ev.Seq, Worker: ev.Worker,
		Class: string(ev.Key.Class), Key: ev.Key.ID,
		DurNS: ev.Dur.Nanoseconds(), N: ev.N, Note: ev.Note}
	switch ev.Kind {
	case sim.EvPhaseStart, sim.EvCellPhase:
		je.Phase = ev.Phase.String()
	case sim.EvCellFinish:
		je.Note = outcomeNote(ev.Out)
	}
	return je
}

// outcomeNote summarizes how a cell was satisfied for the journal.
func outcomeNote(out sim.CellOutcome) string {
	switch {
	case out.Cached:
		return "cached"
	case out.Shared:
		return "shared"
	case out.Replayed:
		return "replayed"
	}
	return "simulated"
}

// event reads a journal line back as the stream event it was written
// from, as far as the line records it: a finished cell's outcome comes
// back as its note says and its wall as Dur, not its phase breakdown.
func (ev JournalEvent) event() (sim.Event, error) {
	k := slices.Index(evNames[:], ev.Ev)
	if k < 0 {
		return sim.Event{}, fmt.Errorf("unknown event %q", ev.Ev)
	}
	kind := sim.Kind(k)
	out := sim.Event{Kind: kind, Job: ev.Job, Seq: ev.Seq, Worker: ev.Worker,
		Key: artifact.Key{Class: artifact.Class(ev.Class), ID: ev.Key},
		Dur: time.Duration(ev.DurNS), N: ev.N, Note: ev.Note}
	if i := strings.LastIndexByte(ev.Cell, '/'); i >= 0 {
		out.Label, out.Workload = ev.Cell[:i], ev.Cell[i+1:]
	}
	switch kind {
	case sim.EvPhaseStart, sim.EvCellPhase:
		p, err := sim.ParsePhase(ev.Phase)
		if err != nil {
			return sim.Event{}, err
		}
		out.Phase = p
	case sim.EvCellFinish:
		out.Note = ""
		out.Out = sim.CellOutcome{Wall: out.Dur, Cached: ev.Note == "cached",
			Shared: ev.Note == "shared", Replayed: ev.Note == "replayed"}
	}
	return out, nil
}

// JournalSummary is what ValidateJournal learned from a stream.
type JournalSummary struct {
	Lines  int
	Events map[string]int // event name → count
}

// knownClasses gates the class field of artifact events.
var knownClasses = func() map[string]bool {
	m := map[string]bool{}
	for _, c := range artifact.Classes() {
		m[string(c)] = true
	}
	return m
}()

// ValidateJournal reads a JSONL journal stream and checks every line
// against the event schema: known event names, no unknown fields, the
// per-family required fields, parseable phases, known artifact classes,
// nondecreasing timestamps, and no cell.finish after its job's job.done.
// CI runs this over the serve-smoke journal so the schema documented in
// EXPERIMENTS.md stays honest.
func ValidateJournal(r io.Reader) (JournalSummary, error) {
	sum := JournalSummary{Events: map[string]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var lastTS int64
	done := map[string]bool{} // jobs whose job.done was read
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		sum.Lines++
		var ev JournalEvent
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return sum, fmt.Errorf("grid: journal line %d: %w", sum.Lines, err)
		}
		if ev.TS < lastTS {
			return sum, fmt.Errorf("grid: journal line %d: timestamp %d goes backwards (previous %d)", sum.Lines, ev.TS, lastTS)
		}
		lastTS = ev.TS
		if err := ev.validate(); err != nil {
			return sum, fmt.Errorf("grid: journal line %d: %w", sum.Lines, err)
		}
		switch {
		case ev.Ev == EvJobDone:
			done[ev.Job] = true
		case ev.Ev == EvCellFinish && done[ev.Job]:
			return sum, fmt.Errorf("grid: journal line %d: cell.finish of %s after its job.done", sum.Lines, ev.Job)
		}
		sum.Events[ev.Ev]++
	}
	if err := sc.Err(); err != nil {
		return sum, err
	}
	return sum, nil
}

// validate checks the per-family required fields of one event.
func (ev JournalEvent) validate() error {
	if _, err := ev.event(); err != nil {
		return err
	}
	switch ev.Ev {
	case EvJobSubmit, EvJobCancel, EvJobResume, EvJobDone:
		if ev.Job == "" {
			return fmt.Errorf("%s: missing job", ev.Ev)
		}
	case EvCellQueue, EvPhaseStart, EvCellPhase:
		if ev.Job == "" || ev.Cell == "" {
			return fmt.Errorf("%s: missing job or cell", ev.Ev)
		}
	case EvCellStart, EvCellFinish:
		if ev.Job == "" || ev.Cell == "" {
			return fmt.Errorf("%s: missing job or cell", ev.Ev)
		}
		if ev.Worker <= 0 {
			return fmt.Errorf("%s: missing worker", ev.Ev)
		}
	case EvCohortStart, EvCohortFinish:
		if ev.Job == "" || ev.Worker <= 0 {
			return fmt.Errorf("%s: missing job or worker", ev.Ev)
		}
		if ev.N < 2 {
			return fmt.Errorf("%s: cohort width %d < 2", ev.Ev, ev.N)
		}
	case EvArtifactHit, EvArtifactJoin, EvArtifactProd:
		if ev.Job == "" || ev.Cell == "" {
			return fmt.Errorf("%s: missing job or cell", ev.Ev)
		}
		if !knownClasses[ev.Class] {
			return fmt.Errorf("%s: unknown artifact class %q", ev.Ev, ev.Class)
		}
	case EvArtifactEvict:
		if !knownClasses[ev.Class] {
			return fmt.Errorf("%s: unknown artifact class %q", ev.Ev, ev.Class)
		}
		if ev.N <= 0 {
			return fmt.Errorf("%s: missing byte count", ev.Ev)
		}
	}
	return nil
}
