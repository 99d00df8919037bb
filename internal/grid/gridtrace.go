package grid

import (
	"io"
	"strconv"

	"repro/internal/trace"
)

// Grid trace export: render a journal event stream as a Chrome/Perfetto
// timeline of the scheduler itself — workers as tracks, cells as slices
// with their phase decomposition nested inside, flow arrows from the
// cell that produced an artifact to every cell the store served it to,
// jobs and cohorts as async spans. Journal nanoseconds become trace
// microseconds (the format's native unit).

// tidScheduler is the track for job lifecycle and store-global events;
// workers use their 1-based ids as tids.
const tidScheduler = 0

// phaseSeg is one buffered cell.phase segment, laid out when the cell's
// extent is known.
type phaseSeg struct {
	name string
	dur  int64 // µs
}

// openCell tracks a started, not yet finished cell.
type openCell struct {
	name   string
	worker int
	start  int64 // µs
	phases []phaseSeg
}

// cellKey names a cell within the whole stream: its job and its name.
type cellKey struct{ job, cell string }

// WriteTrace renders events (chronological, as returned by
// Journal.Events) as a Chrome trace. cell.phase and artifact.* events
// attach to the open cell of their job and name.
func WriteTrace(w io.Writer, events []JournalEvent) error {
	b := trace.NewChromeBuilder("svrsim grid")
	b.Thread(tidScheduler, "scheduler")
	workers := map[int]bool{}
	for _, ev := range events {
		if ev.Worker > 0 && !workers[ev.Worker] {
			workers[ev.Worker] = true
			b.Thread(ev.Worker, "worker "+strconv.Itoa(ev.Worker))
		}
	}

	var (
		nextID     uint64
		jobSpan    = map[string]uint64{}
		open       = map[cellKey]*openCell{}
		flows      = map[string]uint64{} // produced artifact → flow id
		cohortSpan = map[int]uint64{}    // worker → open cohort span id
	)
	newID := func() uint64 { nextID++; return nextID }
	us := func(ns int64) int64 { return ns / 1000 }

	for _, ev := range events {
		ts := us(ev.TS)
		switch ev.Ev {
		case EvJobSubmit:
			id := newID()
			jobSpan[ev.Job] = id
			b.AsyncBegin(tidScheduler, "job "+ev.Job, "job", ts, id,
				map[string]any{"name": ev.Note, "cells": ev.N})
		case EvJobDone:
			if id, ok := jobSpan[ev.Job]; ok {
				b.AsyncEnd(tidScheduler, "job "+ev.Job, "job", ts, id, nil)
				delete(jobSpan, ev.Job)
			}
		case EvJobCancel, EvJobResume:
			b.Instant(tidScheduler, ev.Ev+" "+ev.Job, "job", ts, nil)

		case EvCellStart:
			open[cellKey{ev.Job, ev.Cell}] = &openCell{name: ev.Cell, worker: ev.Worker, start: ts}
		case EvCellPhase:
			if oc := open[cellKey{ev.Job, ev.Cell}]; oc != nil {
				oc.phases = append(oc.phases, phaseSeg{name: ev.Phase, dur: us(ev.DurNS)})
			}
		case EvCellFinish:
			k := cellKey{ev.Job, ev.Cell}
			oc := open[k]
			if oc == nil {
				// cell.start fell off the capture ring: reconstruct the
				// extent from the reported wall time.
				oc = &openCell{name: ev.Cell, worker: ev.Worker,
					start: ts - us(ev.DurNS)}
			}
			b.Slice(oc.worker, oc.name, "cell", oc.start, ts-oc.start,
				map[string]any{"job": ev.Job, "outcome": ev.Note})
			// Phase widths are exact attributions; positions are a
			// cumulative layout from the cell's start, clamped to its
			// extent so the nesting stays valid.
			cursor := oc.start
			for _, seg := range oc.phases {
				if cursor >= ts {
					break
				}
				d := seg.dur
				if cursor+d > ts {
					d = ts - cursor
				}
				b.Slice(oc.worker, seg.name, "phase", cursor, d, nil)
				cursor += d
				if d < 1 {
					cursor++ // Slice clamps to 1 µs; keep siblings disjoint
				}
			}
			delete(open, k)

		case EvCohortStart:
			id := newID()
			cohortSpan[ev.Worker] = id
			b.AsyncBegin(ev.Worker, "cohort×"+strconv.FormatInt(ev.N, 10), "cohort",
				ts, id, map[string]any{"width": ev.N})
		case EvCohortFinish:
			if id, ok := cohortSpan[ev.Worker]; ok {
				b.AsyncEnd(ev.Worker, "cohort×"+strconv.FormatInt(ev.N, 10), "cohort",
					ts, id, nil)
				delete(cohortSpan, ev.Worker)
			}

		case EvArtifactHit, EvArtifactJoin, EvArtifactProd:
			tid := tidScheduler
			if oc := open[cellKey{ev.Job, ev.Cell}]; oc != nil {
				tid = oc.worker
			}
			b.Instant(tid, ev.Ev+" "+ev.Class, "artifact", ts,
				map[string]any{"key": ev.Key, "dur_us": us(ev.DurNS)})
			fk := ev.Class + ":" + ev.Key
			if ev.Ev == EvArtifactProd {
				id := newID()
				flows[fk] = id
				b.FlowStart(tid, "artifact "+ev.Class, "artifact", ts, id)
			} else if id, ok := flows[fk]; ok {
				// One production fans out to every later consumer.
				b.FlowEnd(tid, "artifact "+ev.Class, "artifact", ts, id)
			}
		case EvArtifactEvict:
			b.Instant(tidScheduler, "evict "+ev.Class, "artifact", ts,
				map[string]any{"key": ev.Key, "bytes": ev.N})
		}
	}
	return b.Write(w)
}

// JobEvents filters a journal stream down to one job's events.
// Store-global events (evictions) belong to no job and are excluded.
func JobEvents(events []JournalEvent, jobID string) []JournalEvent {
	var out []JournalEvent
	for _, ev := range events {
		if ev.Job == jobID {
			out = append(out, ev)
		}
	}
	return out
}
