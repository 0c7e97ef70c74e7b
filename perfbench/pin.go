package main

// Regenerating pins.json: run every workload once on the current tree and
// record each tool's outcome, requiring that all regimes (and, for the
// service, both passes) already agree on it.

import (
	"fmt"
	"os"

	"symmerge/internal/coreutils"
)

func pinAll(tools []*coreutils.Tool, symxdPath, out, path string) error {
	p := &pins{Schema: pinsSchema, Workloads: make(map[string]map[string]outcome)}
	for _, w := range workloads {
		e := &env{workload: w, passes: 1, tools: tools, symxd: symxdPath,
			observed: make(map[string]outcome), log: os.Stderr}
		if _, err := e.run(out); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		if e.failed > 0 {
			return fmt.Errorf("%s: %d jobs disagree across regimes or failed; nothing pinned", w, e.failed)
		}
		p.Workloads[w] = e.observed
	}
	return p.save(path)
}
