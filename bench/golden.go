package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// cmdGolden regenerates the committed golden digests, golden/<workload>.json
// under the current directory: every job a seed-42 run can reach, run
// once in a child process per workload.
func cmdGolden(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	only := fs.String("workload", "", "regenerate one workload (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := workloadNames()
	if *only != "" {
		if _, err := lookupWorkload(*only); err != nil {
			return err
		}
		names = []string{*only}
	}
	for _, name := range names {
		f := runFlags{workload: name, seed: goldenSeed, seconds: 1}
		out, _, err := childOutput(context.Background(), f.args("golden", 0))
		if err != nil {
			return err
		}
		var digests map[string]string
		if err := json.Unmarshal(out, &digests); err != nil {
			return fmt.Errorf("%s: bad golden output: %w", name, err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", " ")
		if err := enc.Encode(digests); err != nil {
			return err
		}
		path := filepath.Join("golden", name+".json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %d digests\n", path, len(digests))
	}
	return nil
}

// loadGolden reads the committed seed-42 digests of one workload.
func loadGolden(name string) (map[string]string, error) {
	blob, err := goldenFS.ReadFile("golden/" + name + ".json")
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", name, err)
	}
	return m, nil
}

// writeGolden runs every job the golden file pins, once, and prints the
// digests as a JSON object.
func writeGolden(w io.Writer, b *bench) error {
	digests := map[string]string{}
	if b.serve != nil {
		digests = b.serve.poolDigests
	}
	outs := make([]jobOut, len(b.list))
	errs := make([]error, len(b.list))
	forEach(len(b.list), func(i int) { outs[i], errs[i] = runJob(b.list[i]) })
	for i, out := range outs {
		if errs[i] != nil {
			return fmt.Errorf("job %s: %w", b.list[i].key, errs[i])
		}
		for _, o := range out.outputs {
			digests[o.key] = o.digest
		}
	}
	blob, err := json.Marshal(digests)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
