// Command poseidon-inspect dumps the structure of a saved Poseidon heap
// image: geometry, root pointer, per-sub-heap block statistics, hash-table
// levels, log states and lifetime counters.
//
//	poseidon-inspect heap.img
//	poseidon-inspect -stats heap.img           # full telemetry snapshot
//	poseidon-inspect -stats -json heap.img     # the same snapshot as JSON
//	poseidon-inspect -profile heap.img         # recovered allocation sites
//	poseidon-inspect -profile -pprof p.pb.gz heap.img  # and write pprof
//	poseidon-inspect -blackbox heap.img        # black-box timeline, raw image
//	poseidon-inspect -events heap.img          # recovery journal + black box
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

func main() {
	stats := flag.Bool("stats", false, "print the full telemetry snapshot (latency, attribution, gauges, health, events) after loading")
	asJSON := flag.Bool("json", false, "with -stats/-events/-blackbox: print JSON instead of text")
	profile := flag.Bool("profile", false, "print the allocation-site profile recovered from the image's persistent side-table")
	pprofOut := flag.String("pprof", "", "with -profile: also write the profile as gzipped pprof protobuf to this file (go tool pprof compatible)")
	events := flag.Bool("events", false, "run recovery, then dump the drained event journal plus the black-box timeline")
	blackbox := flag.Bool("blackbox", false, "reconstruct the black-box flight-recorder timeline from the raw image (no recovery)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: poseidon-inspect [-stats [-json]] [-profile [-pprof out.pb.gz]] [-events] [-blackbox] <heap-image>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *stats, *asJSON, *profile, *events, *blackbox, *pprofOut); err != nil {
		fmt.Fprintln(os.Stderr, "poseidon-inspect:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, path string, stats, asJSON, profile, events, blackbox bool, pprofOut string) error {
	var tel *obs.Telemetry
	if stats || profile || events {
		tel = obs.New()
	}
	dev, err := nvm.LoadFile(path, nvm.Options{Stats: stats})
	if err != nil {
		return err
	}
	if blackbox {
		// Raw attach: the post-crash ring exactly as the image holds it —
		// no recovery, no epoch bump, no header rewrite.
		h, err := core.Attach(dev, core.Options{})
		if err != nil {
			return err
		}
		tl, err := h.BlackboxTimeline()
		if err != nil {
			return err
		}
		return dumpTimeline(out, asJSON, nil, tl)
	}
	h, err := core.Load(dev, core.Options{Telemetry: tel})
	if err != nil {
		return err
	}
	if events {
		// The journal now holds this load's recovery events; the black box
		// holds the crashed run's history plus those same events (published
		// at load). Drained oldest-first, per the journal's ordering
		// guarantee.
		tl, terr := h.BlackboxTimeline()
		if terr != nil {
			fmt.Fprintln(os.Stderr, "poseidon-inspect: black-box timeline:", terr)
		}
		return dumpTimeline(out, asJSON, tel.DrainEvents(), tl)
	}
	if profile {
		return dumpProfile(out, h, pprofOut)
	}
	if !stats {
		return h.Inspect(out)
	}
	// Offline snapshot: the load itself populates the recovery/scrub
	// histograms and attribution; the gauges reflect the image's state.
	snap := h.Metrics()
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	return obs.WriteText(out, snap)
}

// dumpTimeline prints the drained journal (when the caller ran recovery)
// and the black-box timeline, as human text or one JSON document.
func dumpTimeline(out io.Writer, asJSON bool, journal []obs.Event, tl []core.BlackboxEntry) error {
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Journal  []obs.Event          `json:",omitempty"`
			Blackbox []core.BlackboxEntry `json:",omitempty"`
		}{journal, tl})
	}
	if journal != nil {
		fmt.Fprintf(out, "event journal (this load): %d events\n", len(journal))
		for _, e := range journal {
			fmt.Fprintf(out, "  %6d %s %-14s sub=%-3d %s\n", e.Seq,
				e.At.Format("15:04:05.000000"), e.KindStr, e.Subheap, e.Detail)
		}
	}
	core.WriteTimeline(out, tl)
	return nil
}

// dumpProfile prints the allocation sites recovered from the image's
// persistent side-table (leak attribution across the crash: live counts are
// what the last snapshot generation recorded) and optionally writes the
// pprof protobuf for go tool pprof.
func dumpProfile(out io.Writer, h *core.Heap, pprofOut string) error {
	prof := h.Telemetry().Profiler()
	sites := prof.Sites()
	fmt.Fprintf(out, "allocation-site profile: %d sites, boot epoch %d\n", len(sites), h.ProfileEpoch())
	if len(sites) == 0 {
		fmt.Fprintln(out, "  (empty: the image holds no persisted site table, or nothing was sampled)")
	}
	for _, s := range sites {
		marker := ""
		if s.Recovered {
			marker = " [recovered]"
		}
		fmt.Fprintf(out, "  site %016x: live %d objects / %d bytes, cum %d allocs / %d bytes, first epoch %d%s\n",
			s.Hash, s.LiveObjects, s.LiveBytes, s.AllocObjects, s.AllocBytes, s.FirstEpoch, marker)
		for _, f := range s.Frames {
			fmt.Fprintf(out, "      %s\n          %s:%d\n", f.Func, f.File, f.Line)
		}
	}
	leaks := prof.LeakSites(h.ProfileEpoch())
	live := 0
	for _, s := range leaks {
		if s.LiveBytes > 0 {
			live++
		}
	}
	fmt.Fprintf(out, "leak candidates (live since before epoch %d): %d sites\n", h.ProfileEpoch(), live)
	if pprofOut != "" {
		b, err := h.ProfilePprof()
		if err != nil {
			return err
		}
		if err := os.WriteFile(pprofOut, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "pprof profile written to %s (%d bytes)\n", pprofOut, len(b))
	}
	return nil
}
