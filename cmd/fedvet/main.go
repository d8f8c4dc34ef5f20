// Command fedvet is the determinism contract checker for this repository.
// It bundles the internal/analysis suite — maporder, seededrand, wallclock,
// floatbits — behind the standard cmd/go vet-tool protocol.
//
// Two ways to run it:
//
//	go vet -vettool=$(which fedvet) ./...   # the protocol entry point
//	fedvet ./...                            # convenience: re-execs the line above
//
// Either way a finding prints as file:line:col, names the analyzer, and
// fails the build; suppressions are in-source //fedvet:ignore comments
// with mandatory reasons (see internal/analysis).
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"reffil/internal/analysis/registry"
	"reffil/internal/analysis/unitchecker"
)

func main() {
	// cmd/go drives the tool with protocol flags (-V=full, -flags) or a
	// single *.cfg positional; anything else is a human asking for
	// package patterns, which we route back through go vet so package
	// loading, build tags, and caching behave identically.
	if invokedByGoVet(os.Args[1:]) {
		unitchecker.Main(registry.All()...)
	}

	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedvet: %v\n", err)
		os.Exit(1)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "fedvet: %v\n", err)
		os.Exit(1)
	}
}

func invokedByGoVet(args []string) bool {
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			return true
		}
		if strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}
