package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

const repoPrefix = "repro/internal/"

// layerSelfTimes runs `go tool pprof -traces` on a CPU profile and
// reduces its output with reduceTraces.
func layerSelfTimes(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return reduceTraces(string(out))
}

// reduceTraces attributes the CPU time of each sampled stack printed by
// `pprof -traces` to one layer: the package of its innermost frame in a
// listed repro/internal layer. Standard-library, runtime and benchmark
// frames, and repository packages outside the list (lhs, baseline),
// count toward the layer that called them; a stack with no layer frame
// (background GC, the scheduler) counts toward gc. Every listed layer
// and gc appear in the result, zero when unsampled.
func reduceTraces(text string) (map[string]float64, error) {
	self := map[string]float64{gcLayer: 0}
	isLayer := map[string]bool{}
	for _, l := range layers {
		self[l] = 0
		isLayer[l] = true
	}
	// Each stack follows a separator line: first "<time> <leaf>", then
	// its callers one per line, innermost first.
	var value float64
	var atSample, open bool // open: the stack's layer is not yet found
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			if open {
				self[gcLayer] += value
			}
			atSample, open = true, false
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if atSample {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			v, err := parseSeconds(fields[0])
			if err != nil {
				return nil, err
			}
			value, atSample, open = v, false, true
			fields = fields[1:]
		}
		if open {
			if l := frameLayer(fields[0]); isLayer[l] {
				self[l] += value
				open = false
			}
		}
	}
	if open {
		self[gcLayer] += value
	}
	return self, sc.Err()
}

// frameLayer returns the repro/internal package a function belongs to,
// or "" for any other function.
func frameLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// parseSeconds reads a pprof duration such as "10ms" or "1.20s".
func parseSeconds(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof traces: bad duration %q", s)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("pprof traces: bad duration %q", s)
}
