// Package cliutil holds the small flag-validation and conversion helpers
// the commands share. Every command that takes a node count, an average
// degree, a scenario directory or a replica endpoint list used to grow its
// own near-identical checks (localtrace and scenarioctl each did in PR 5);
// keeping them here means the error message for "-n 0" is the same sentence
// everywhere and a bound fixed once is fixed for every tool.
//
// All helpers take the flag's display name (e.g. "-n") as their first
// argument so the returned errors point at the flag the user actually
// typed, not at an internal field.
package cliutil

import (
	"fmt"
	"math"
	"net/url"
	"os"
	"strings"
)

// Nodes validates a node-count flag: every graph needs at least one node.
func Nodes(flag string, n int) error {
	if n < 1 {
		return fmt.Errorf("%s %d: need at least one node", flag, n)
	}
	return nil
}

// AvgDegree validates an average-degree flag against the node count: a
// simple graph on n nodes supports average degree in [0, n-1]. Callers
// should validate the node count first (see Nodes).
func AvgDegree(flag string, n int, deg float64) error {
	if math.IsNaN(deg) {
		return fmt.Errorf("%s %g: average degree must be a number", flag, deg)
	}
	if deg < 0 {
		return fmt.Errorf("%s %g: average degree cannot be negative", flag, deg)
	}
	if deg > float64(n-1) {
		return fmt.Errorf("%s %g: a graph on %d nodes supports average degree at most %d", flag, deg, n, n-1)
	}
	return nil
}

// GNPProb converts a validated (n, average degree) pair into the G(n,p)
// edge probability realizing that degree. n <= 1 yields 0: AvgDegree
// guarantees deg == 0 there, and GNP on one node has no edges to flip.
func GNPProb(n int, deg float64) float64 {
	if n <= 1 {
		return 0
	}
	return deg / float64(n-1)
}

// NonNegative validates a flag that must be zero or positive (bounds,
// budgets, -max-rounds style truncations where 0 means "unlimited").
func NonNegative(flag string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s %d: must be >= 0", flag, v)
	}
	return nil
}

// Positive validates a flag that must be at least one (counts where zero
// would mean "do nothing", like a fault trigger threshold).
func Positive(flag string, v int) error {
	if v < 1 {
		return fmt.Errorf("%s %d: must be >= 1", flag, v)
	}
	return nil
}

// Dir validates a required directory flag: set, existing, and a directory.
func Dir(flag, path string) error {
	if path == "" {
		return fmt.Errorf("%s: required", flag)
	}
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("%s %s: %w", flag, path, err)
	}
	if !st.IsDir() {
		return fmt.Errorf("%s %s: not a directory", flag, path)
	}
	return nil
}

// Endpoints parses a comma-separated list of HTTP base URLs (the -endpoints
// flag of localsweepd). Entries are trimmed of surrounding space and
// trailing slashes; each must carry an http or https scheme and a host.
// An empty list is valid and yields nil — whether that is acceptable is the
// caller's call (the fabric requires endpoints unless fallback is enabled).
func Endpoints(flag, list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []string
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimRight(strings.TrimSpace(item), "/")
		if item == "" {
			return nil, fmt.Errorf("%s %q: empty endpoint in list", flag, list)
		}
		u, err := url.Parse(item)
		if err != nil {
			return nil, fmt.Errorf("%s %q: %w", flag, item, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("%s %q: need an http:// or https:// base URL", flag, item)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("%s %q: missing host", flag, item)
		}
		out = append(out, item)
	}
	return out, nil
}
