// Command specrun replays the paper's worked figures — each as a
// program plus attacker directive schedule — and prints the
// directive/leakage tables the figures show.
//
// Usage:
//
//	specrun [fig1|fig2|fig4|fig5|fig6|fig7|fig8|fig11|fig12|fig13 ...]
//
// With no arguments, the whole gallery runs. An unknown figure ID is a
// usage error (exit 2).
package main

import (
	"fmt"
	"os"
	"strings"

	"pitchfork/spectre"
)

func main() {
	gallery := spectre.Gallery()
	known := map[string]bool{}
	for _, f := range gallery {
		known[f.ID] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, a := range os.Args[1:] {
		if !known[a] {
			unknown = append(unknown, a)
		}
		want[a] = true
	}
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "specrun: unknown figure(s): %s\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}
	for _, f := range gallery {
		if len(want) > 0 && !want[f.ID] {
			continue
		}
		out, err := f.Render()
		if err != nil {
			fmt.Fprintf(os.Stderr, "specrun: %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
