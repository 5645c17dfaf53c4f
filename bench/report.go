package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// statRow is one operation's samples for the min/mean/median/max table.
type statRow struct {
	name, unit string
	samples    []float64
}

// printStats prints one table in the shape of the tor-performance
// exemplar: per operation, the sample count and min / mean / median /
// max.
func printStats(w io.Writer, title string, rows []statRow) {
	fmt.Fprintf(w, "%s:\n  %-34s %5s %12s %12s %12s %12s  %s\n", title, "operation", "n", "min", "mean", "median", "max", "unit")
	for _, r := range rows {
		if len(r.samples) == 0 {
			continue
		}
		s := append([]float64(nil), r.samples...)
		sort.Float64s(s)
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		fmt.Fprintf(w, "  %-34s %5d %12.6g %12.6g %12.6g %12.6g  %s\n",
			r.name, len(s), s[0], sum/float64(len(s)), median(s), s[len(s)-1], r.unit)
	}
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
