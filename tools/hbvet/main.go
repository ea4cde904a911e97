// Command hbvet is this repository's custom static-analysis suite: a
// multichecker enforcing the invariants the compiler cannot see and the
// test suite only samples.
//
//	go run ./tools/hbvet ./...        # the whole module (what `make analyze` runs)
//	go run ./tools/hbvet ./balance    # one package (the rest of the module loads for facts and uses)
//
// Four analyzers run by default (select a subset with -run):
//
//   - wallclock: no direct time.Now/Sleep/After/AfterFunc/NewTicker/NewTimer
//     or context.WithTimeout/WithDeadline outside the clock seams
//     (package clock). Everything else must run on the injected
//     clock.Clock — reads through clock.Now, every wait on one
//     clock.Timer from clock.AfterFunc or clock.SleepCtx — or carry
//     //hbvet:allow wallclock -- <reason>.
//   - hotpath: functions marked //hbvet:hotpath are transitively
//     allocation-, lock-, and channel-free, and only call verified code.
//   - clockthread: a type that stores a clock must use it — its methods
//     and constructors may not read the wall directly, whatever blanket
//     wallclock waivers exist.
//   - deadapi: every exported identifier of a public package (no
//     "internal" path element, not main) is used from a non-test file of
//     another package, or its doc comment says why it stays with
//     //hbvet:api -- <reason>. Uses are indexed over the whole module
//     whatever packages are named, so one package reports what ./...
//     reports for it.
//
// hbvet exits non-zero when any finding survives seam and allow
// filtering, printing one "path:line:col: analyzer: message" per line,
// so it slots into `make ci` exactly like go vet.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/tools/hbvet/internal/analysis"
	"repro/tools/hbvet/internal/load"
	"repro/tools/hbvet/internal/passes/clockthread"
	"repro/tools/hbvet/internal/passes/deadapi"
	"repro/tools/hbvet/internal/passes/hotpath"
	"repro/tools/hbvet/internal/passes/wallclock"
)

var all = []*analysis.Analyzer{wallclock.Analyzer, hotpath.Analyzer, clockthread.Analyzer, deadapi.Analyzer}

func main() {
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hbvet [-run analyzer,...] [packages]\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := all
	if *run != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "hbvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbvet:", err)
		os.Exit(2)
	}
	findings, err := vet(cwd, analyzers, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbvet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// vet runs analyzers over the packages patterns match, resolved from dir,
// and returns one "path:line:col: analyzer: message" line per finding that
// survives seam and allow filtering.
func vet(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]string, error) {
	prog, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	module := &analysis.Module{}
	for _, pkg := range prog.Packages {
		module.Packages = append(module.Packages, &analysis.Package{
			Fset:    prog.Fset,
			Files:   pkg.Files,
			Pkg:     pkg.Pkg,
			Info:    pkg.Info,
			RelPath: prog.RelPath,
			Module:  module,
		})
	}
	facts := analysis.NewFacts()
	var out []string
	for i, pkg := range prog.Packages {
		findings, err := analysis.RunPackage(module.Packages[i], analyzers, facts)
		if err != nil {
			return nil, err
		}
		if !pkg.Requested {
			continue // loaded for facts and uses only
		}
		for _, f := range findings {
			out = append(out, fmt.Sprintf("%s:%d:%d: %s: %s", f.RelFile, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message))
		}
	}
	return out, nil
}
