package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/emu"
	"repro/internal/stream"
	"repro/internal/svr"
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

// cmdTimeline runs a traced window of one workload on the SVR machine and
// exports it as a timeline: Chrome Trace Event JSON for Perfetto
// (per-lane pipeline slices, PRM rounds as async spans, miss→fill flow
// arrows) or raw JSONL for custom tooling.
func cmdTimeline(w io.Writer, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("timeline: missing workload name")
	}
	name := args[0]
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	out := fs.String("o", "trace.json", "output path (- for stdout)")
	format := fs.String("format", "chrome", "output format: chrome (Perfetto-loadable), jsonl")
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
	if *format != "chrome" && *format != "jsonl" {
		return fmt.Errorf("unknown format %q (want chrome, jsonl)", *format)
	}
	cfg, err := parseCore("svr", *n)
	if err != nil {
		return err
	}

	dst := w
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}

	inst := spec.Build(workloads.BenchScale())
	h := cache.NewHierarchy(cfg.Hier)
	core := inorder.New(cfg.InO, h)
	cpu := emu.New(inst.Prog, inst.Mem)
	eng := svr.New(cfg.SVR, h, cpu)
	core.Companion = eng
	core.Run(stream.NewLive(cpu), *skip)

	var sink trace.Sink
	switch *format {
	case "chrome":
		sink = &trace.Capture{}
	case "jsonl":
		sink = trace.NewJSONL(dst)
	}
	core.Tracer = sink
	eng.Tracer = sink
	core.Run(stream.NewLive(cpu), *window)

	if cap, ok := sink.(*trace.Capture); ok {
		if err := trace.WriteChromeTrace(dst, cap.Events, cfg.InO.Width); err != nil {
			return err
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}
	if *out != "-" {
		fmt.Fprintf(w, "timeline of %s (SVR-%d): %d instructions after skipping %d -> %s (%s)\n",
			name, *n, *window, *skip, *out, *format)
	}
	return nil
}
