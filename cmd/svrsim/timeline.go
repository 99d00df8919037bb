package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// lookupWorkload resolves a workload name, listing every valid name in
// the error so a typo is answerable without a second command.
func lookupWorkload(name string) (workloads.Spec, error) {
	spec, err := workloads.Get(name)
	if err != nil {
		return workloads.Spec{}, fmt.Errorf("unknown workload %q; valid workloads: %s",
			name, strings.Join(workloads.Names(), " "))
	}
	return spec, nil
}

// traceWindow builds cfg's machine over spec's BenchScale image, times
// the first skip instructions untraced, then the next window with sink
// attached, and returns how many instructions sink saw (fewer than
// window if the program ended inside it). A program that ends inside
// skip is an error.
func traceWindow(spec workloads.Spec, cfg sim.Config, skip, window uint64, sink trace.Tracer) (uint64, error) {
	m, err := sim.NewMachine(cfg, spec.Build(workloads.BenchScale()))
	if err != nil {
		return 0, err
	}
	if !m.Step(skip) {
		return 0, fmt.Errorf("%s ended after %d instructions, inside -skip %d", spec.Name, m.Instrs(), skip)
	}
	m.SetTracer(sink)
	m.Step(window)
	return m.Instrs() - skip, nil
}

// cmdTimeline runs a traced window of one workload on the SVR machine and
// exports it: Chrome Trace Event JSON for Perfetto (per-lane pipeline
// slices, PRM rounds as async spans, miss→fill flow arrows), raw JSONL
// for custom tooling, or text, a dump of the window's last -events
// events and a per-kind summary.
func cmdTimeline(w io.Writer, args []string) (err error) {
	if len(args) < 1 {
		return fmt.Errorf("timeline: missing workload name")
	}
	name := args[0]
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	out := fs.String("o", "trace.json", "output path (- for stdout)")
	format := fs.String("format", "chrome", "output format: chrome (Perfetto-loadable), jsonl, text")
	events := fs.Int("events", 120, "events the text format retains")
	skip := fs.Uint64("skip", 20_000, "instructions to run before tracing")
	window := fs.Uint64("window", 2_000, "instructions to trace")
	n := fs.Int("n", 16, "SVR vector length")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	spec, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if *format != "chrome" && *format != "jsonl" && *format != "text" {
		return fmt.Errorf("unknown format %q (want chrome, jsonl, text)", *format)
	}
	if *events < 1 {
		return fmt.Errorf("timeline: -events %d, want at least 1", *events)
	}
	cfg, err := grid.ParseConfig(fmt.Sprintf("svr%d", *n))
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	dst := w
	if *out != "-" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if ferr := f.Close(); err == nil {
				err = ferr
			}
			if err != nil {
				os.Remove(*out) // a failed timeline leaves no file behind
			}
		}()
		dst = f
	}

	var sink trace.Sink
	switch *format {
	case "chrome":
		sink = &trace.Capture{}
	case "jsonl":
		sink = trace.NewJSONL(dst)
	case "text":
		sink = trace.NewRing(*events)
	}
	traced, err := traceWindow(spec, cfg, *skip, *window, sink)
	if err != nil {
		return err
	}
	switch sink := sink.(type) {
	case *trace.Capture:
		err = trace.WriteChromeTrace(dst, sink.Events, cfg.InO.Width)
	case *trace.Ring:
		fmt.Fprintf(dst, "trace of %s (SVR-%d), %d instructions after skipping %d:\n\n",
			name, *n, traced, *skip)
		if err = sink.Dump(dst); err == nil {
			_, err = fmt.Fprintf(dst, "\nwindow summary: %s (%d events total)\n", sink.Summary(), sink.Total())
		}
	}
	if err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}
	if *out != "-" {
		fmt.Fprintf(w, "timeline of %s (SVR-%d): %d instructions after skipping %d -> %s (%s)\n",
			name, *n, traced, *skip, *out, *format)
	}
	return nil
}
