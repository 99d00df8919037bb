package trace

import (
	"fmt"
	"io"
)

// Chrome Trace Event Format rendering: the captured event stream becomes
// a timeline loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Layout:
//
//   - one thread ("lane k") per issue slot of the core, carrying an "X"
//     duration slice per instruction (issue → result);
//   - a small pool of "memory" threads carrying one slice per demand
//     miss (issue → fill), round-robined so overlapping misses don't
//     collide on a track, with "s"/"f" flow arrows tying each miss back
//     to the issuing lane slice;
//   - an "svr" thread with async "b"/"e" spans for PRM rounds
//     (enter → exit) and instants for SVIs, masks, bans, and retargets.
//
// Timestamps are cycles (the format nominally wants microseconds; a
// 1 cycle = 1 µs reading keeps durations exact and Perfetto indifferent).

// chromeEvent is one record of the Trace Event Format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`  // instant scope
	BP   string         `json:"bp,omitempty"` // flow binding point
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope form of the format.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

const (
	chromePid     = 1
	memTracks     = 4 // concurrent demand misses rarely exceed the MSHR-ish handful
	chromeCatCore = "core"
	chromeCatMem  = "mem"
	chromeCatSVR  = "svr"
)

// WriteChromeTrace renders events (oldest first, as captured) as a Chrome
// Trace Event Format JSON object. width is the core's issue width — it
// fixes the number of lane threads; pass 1 if unknown.
func WriteChromeTrace(w io.Writer, events []Event, width int) error {
	if width < 1 {
		width = 1
	}
	memBase := width            // lane tids are 0..width-1
	svrTid := width + memTracks // after the memory track pool

	b := NewChromeBuilder("svrsim")
	for l := 0; l < width; l++ {
		b.Thread(l, fmt.Sprintf("lane %d", l))
	}
	for m := 0; m < memTracks; m++ {
		b.Thread(memBase+m, fmt.Sprintf("memory %d", m))
	}
	b.Thread(svrTid, "svr engine")

	// A load's fill time arrives as a separate KindComplete record with
	// the same Seq; index them so issue slices get true durations.
	fills := make(map[uint64]Event, len(events)/4)
	for _, ev := range events {
		if ev.Kind == KindComplete {
			fills[ev.Seq] = ev
		}
	}

	var prmRound uint64
	var memCursor int
	for _, ev := range events {
		switch ev.Kind {
		case KindIssue:
			lane := int(ev.Arg)
			if lane < 0 || lane >= width {
				lane = 0
			}
			dur := int64(1)
			fill, haveFill := fills[ev.Seq]
			if haveFill && fill.Cycle > ev.Cycle {
				dur = fill.Cycle - ev.Cycle
			}
			b.Slice(lane, ev.Text, chromeCatCore, ev.Cycle, dur, map[string]any{"pc": ev.PC, "seq": ev.Seq})
			// A fill from beyond L1 gets a memory-track slice plus a flow
			// arrow from the issuing lane to the fill.
			if haveFill && fill.Text != "L1" && fill.Text != "commit" && fill.Cycle > ev.Cycle {
				mt := memBase + memCursor%memTracks
				memCursor++
				b.Slice(mt, "miss "+fill.Text, chromeCatMem, ev.Cycle, dur,
					map[string]any{"pc": ev.PC, "seq": ev.Seq, "addr": fill.Arg})
				b.FlowStart(lane, "fill", chromeCatMem, ev.Cycle, ev.Seq)
				b.FlowEnd(mt, "fill", chromeCatMem, fill.Cycle, ev.Seq)
			}
		case KindComplete:
			// Folded into the issue slice above.
		case KindPRMEnter:
			prmRound++
			b.AsyncBegin(svrTid, "PRM round", chromeCatSVR, ev.Cycle, prmRound,
				map[string]any{"detail": ev.Text, "lanes": ev.Arg})
		case KindPRMExit:
			if prmRound == 0 {
				continue // exit with no captured enter (window truncation)
			}
			b.AsyncEnd(svrTid, "PRM round", chromeCatSVR, ev.Cycle, prmRound, map[string]any{"detail": ev.Text})
		default: // SVI, mask, ban, retarget: point-in-time annotations
			b.Instant(svrTid, ev.Kind.String(), chromeCatSVR, ev.Cycle,
				map[string]any{"detail": ev.Text, "pc": ev.PC, "seq": ev.Seq})
		}
	}
	return b.Write(w)
}

// metaEvent builds an "M" metadata record naming a process or thread.
func metaEvent(name string, tid int, args map[string]any) chromeEvent {
	return chromeEvent{Name: name, Ph: "M", Pid: chromePid, Tid: tid, Args: args}
}
