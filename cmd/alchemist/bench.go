package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"alchemist/internal/bench"
)

// runBench implements `alchemist bench`: measure the live Go kernels
// (ring transforms, scheme evaluators, engine report regeneration) and
// print them, or write a JSON capture for the in-repo benchmark
// trajectory (BENCH_BASELINE.json, BENCH_PR4.json, BENCH_PR5.json, ...).
// -workers takes a comma list ("1,4"): more than one count produces a
// multi-worker scaling capture (schema v2) with one sub-suite per count and
// a derived speedup/efficiency table. With -capture the suite is loaded
// from an existing JSON file instead of being re-measured, so CI can diff
// two committed captures deterministically; with -gate any matched kernel
// regressing past the threshold fails the run. Comparisons pair sub-suites
// by (GOMAXPROCS, workers) and refuse to run when nothing pairs up — a
// serial capture diffed against a parallel one measures scheduling, not
// kernels.
func runBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		jsonOut    = fs.Bool("json", false, "write the capture as JSON (see -out)")
		out        = fs.String("out", "-", "JSON output path with -json (- for stdout)")
		label      = fs.String("label", "", "capture label stored in the JSON (default: output filename, or \"live\" on stdout)")
		quick      = fs.Bool("quick", false, "reduced parameter set (CI smoke)")
		workers    = fs.String("workers", "0", "comma list of ring worker counts (0 = NumCPU); >1 entry emits a scaling capture")
		best       = fs.Int("best", 1, "run each kernel this many times, keep the fastest pass (tracked captures use 3-6)")
		baseline   = fs.String("baseline", "", "compare against a previous JSON capture")
		capture    = fs.String("capture", "", "load this JSON capture instead of measuring")
		gate       = fs.Float64("gate", 0, "with -baseline: fail if any matched kernel regresses by more than this percent")
		scaleFloor = fs.Float64("scale-floor", 0, "fail if any ring-partitioned kernel's parallel efficiency is below this fraction (needs a multi-worker capture)")
		quiet      = fs.Bool("q", false, "suppress per-benchmark progress lines")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: alchemist bench [-json] [-out file] [-quick] [-workers n,m] [-best n] [-baseline file] [-capture file] [-gate pct] [-scale-floor frac]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	// With the JSON capture on stdout, the human-readable lines go to
	// stderr so the capture stays parseable.
	text := io.Writer(os.Stdout)
	if *jsonOut && *out == "-" {
		text = os.Stderr
	}
	var suite *bench.ScalingSuite
	if *capture != "" {
		var err error
		suite, err = bench.ReadCapture(*capture)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		counts, err := parseWorkerList(*workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg := bench.LiveConfig{
			Label: *label,
			Quick: *quick,
			Best:  *best,
		}
		if cfg.Label == "" {
			cfg.Label = *out
			if *out == "-" {
				cfg.Label = "live"
			}
		}
		if !*quiet {
			cfg.Progress = func(line string) { fmt.Fprintln(text, line) }
		}
		if len(counts) == 1 {
			// Single count: measure and store the plain v1 shape so the
			// committed trajectory files stay diffable with older captures.
			cfg.Workers = counts[0]
			s, err := bench.RunLive(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			suite = bench.Wrap(s)
			if *jsonOut {
				if err := s.WriteJSON(*out); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				if *out != "-" {
					fmt.Fprintf(text, "bench      wrote %d results to %s\n", len(s.Results), *out)
				}
			}
		} else {
			suite, err = bench.RunScaling(cfg, counts)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprint(text, suite.ScalingReport().String())
			if *jsonOut {
				if err := suite.WriteJSON(*out); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				if *out != "-" {
					n := 0
					for _, s := range suite.Subs {
						n += len(s.Results)
					}
					fmt.Fprintf(text, "bench      wrote %d results (%d worker counts) to %s\n", n, len(suite.Subs), *out)
				}
			}
		}
	}
	if *scaleFloor > 0 {
		if err := suite.CheckEfficiencyFloor(*scaleFloor); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(text, "bench      scaling ok: partitioned kernels at or above %.0f%% efficiency\n", *scaleFloor*100)
	}
	if *baseline != "" {
		base, err := bench.ReadCapture(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pairs, err := bench.MatchSubs(suite, base)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var regs []bench.Regression
		for _, p := range pairs {
			fmt.Fprint(text, p.New.Compare(p.Base).String())
			if *gate > 0 {
				regs = append(regs, p.New.Regressions(p.Base, *gate)...)
			}
		}
		if *gate > 0 {
			if len(regs) > 0 {
				fmt.Fprintf(os.Stderr, "bench: %d kernel(s) regressed past the %.0f%% gate vs %s:\n", len(regs), *gate, *baseline)
				for _, r := range regs {
					fmt.Fprintln(os.Stderr, "  "+r.String())
				}
				os.Exit(1)
			}
			fmt.Fprintf(text, "bench      gate ok: no kernel regressed more than %.0f%% vs %s\n", *gate, *baseline)
		}
	}
}

// parseWorkerList parses the -workers comma list; "0" or an empty string
// selects the single-capture default (NumCPU).
func parseWorkerList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{0}, nil
	}
	parts := strings.Split(s, ",")
	counts := make([]int, 0, len(parts))
	seen := map[int]bool{}
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bench: bad -workers entry %q (want non-negative integers, comma-separated)", p)
		}
		if seen[n] {
			return nil, fmt.Errorf("bench: duplicate -workers entry %d", n)
		}
		seen[n] = true
		counts = append(counts, n)
	}
	if len(counts) > 1 {
		for _, n := range counts {
			if n == 0 {
				return nil, fmt.Errorf("bench: -workers list mixing 0 (auto) with explicit counts is ambiguous")
			}
		}
	}
	return counts, nil
}
