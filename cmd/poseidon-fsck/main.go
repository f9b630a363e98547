// Command poseidon-fsck audits a saved heap image: every sub-heap's blocks
// must tile the user region exactly with no overlaps, free lists must
// agree with the memory-block hash table, and log headers must be sane.
// Pending recovery work (non-empty logs) is reported but is not an error —
// loading the heap performs it.
//
//	poseidon-fsck heap.img          # audit after recovery (the normal view)
//	poseidon-fsck -raw heap.img     # audit the image as-is, skipping recovery
//	poseidon-fsck -json heap.img    # machine-readable report
//	poseidon-fsck -repair heap.img  # repair quarantined sub-heaps in place
//
// -repair implies -scrub: the image is loaded with the full audit, every
// quarantined sub-heap is repaired (mirror restore, else rebuild by table
// walk), the heap is re-audited, and the repaired image is saved back to
// the same path.
//
// Recovery, the -scrub audit and the -repair walk fan out over GOMAXPROCS
// workers (GOMAXPROCS=N poseidon-fsck bounds the width); the recovered
// image is the same at any width.
//
// Exit status: 0 clean, 1 problems found, 2 usage/load error, 3 degraded
// (in-service sub-heaps are consistent but capacity is quarantined).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

// report is the JSON envelope: the raw CheckReport plus the classified
// status ("clean" | "degraded" | "problems") matching the exit code, and
// how many sub-heaps -repair returned to service.
type report struct {
	Status   string
	Repaired int `json:",omitempty"`
	Report   core.CheckReport
	// Timeline is the black-box flight-recorder reconstruction (-timeline):
	// events, sampled spans and stalls recovered from the image's persistent
	// ring, ascending sequence order.
	Timeline []core.BlackboxEntry `json:",omitempty"`
}

func main() {
	raw := flag.Bool("raw", false, "audit without running recovery first")
	scrub := flag.Bool("scrub", false, "run the full metadata audit during recovery, quarantining failed sub-heaps")
	repair := flag.Bool("repair", false, "repair quarantined sub-heaps and save the image back (implies -scrub)")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	timeline := flag.Bool("timeline", false, "reconstruct the black-box flight-recorder timeline from the image")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: poseidon-fsck [-raw] [-scrub] [-repair] [-timeline] [-json] <heap-image>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *raw && *repair {
		fmt.Fprintln(os.Stderr, "poseidon-fsck: -raw and -repair are mutually exclusive")
		os.Exit(2)
	}
	rep, err := run(flag.Arg(0), *raw, *scrub, *repair, *timeline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "poseidon-fsck:", err)
		os.Exit(2)
	}
	code := 0
	switch {
	case !rep.Report.OK():
		rep.Status = "problems"
		code = 1
	case rep.Report.Quarantined > 0:
		rep.Status = "degraded"
		code = 3
	default:
		rep.Status = "clean"
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "poseidon-fsck:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}
	printReport(rep)
	if *timeline {
		core.WriteTimeline(os.Stdout, rep.Timeline)
	}
	os.Exit(code)
}

func printReport(rep report) {
	r := rep.Report
	fmt.Printf("sub-heaps: %d (%d formatted)\n", r.Subheaps, r.Formatted)
	fmt.Printf("blocks:    %d allocated, %d free\n", r.AllocatedBlocks, r.FreeBlocks)
	if rep.Repaired > 0 {
		fmt.Printf("repaired:  %d sub-heaps returned to service\n", rep.Repaired)
	}
	if r.Quarantined > 0 {
		fmt.Printf("QUARANTINED: %d sub-heaps (%d bytes of capacity out of service)\n",
			r.Quarantined, r.QuarantinedBytes)
		for _, sr := range r.SubheapReports {
			if sr.Quarantined {
				fmt.Printf("  - sub-heap %d: %s\n", sr.ID, sr.QuarantineReason)
			}
		}
	}
	if r.PendingUndo > 0 {
		fmt.Printf("pending:   %d commit-record words not in place (interrupted operation; recovery will replay them)\n", r.PendingUndo)
	}
	if r.PendingTx > 0 {
		fmt.Printf("pending:   %d micro-log entries (open transactions; recovery will roll them back)\n", r.PendingTx)
	}
	if r.OK() {
		if r.Healthy() {
			fmt.Println("heap is consistent")
		} else {
			fmt.Println("in-service sub-heaps are consistent (degraded: quarantined capacity above)")
		}
		return
	}
	fmt.Printf("%d PROBLEMS:\n", len(r.Problems))
	for _, p := range r.Problems {
		fmt.Println("  -", p)
	}
}

func run(path string, raw, scrub, repair, timeline bool) (report, error) {
	dev, err := nvm.LoadFile(path, nvm.Options{})
	if err != nil {
		return report{}, err
	}
	var h *core.Heap
	if raw {
		h, err = core.Attach(dev, core.Options{})
	} else {
		h, err = core.Load(dev, core.Options{ScrubOnLoad: scrub || repair})
	}
	if err != nil {
		return report{}, err
	}
	var rep report
	if repair {
		n, rerr := h.RepairAll()
		rep.Repaired = n
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "poseidon-fsck: repair:", rerr)
		}
	}
	rep.Report, err = h.Check()
	if err != nil {
		return rep, err
	}
	if timeline {
		tl, terr := h.BlackboxTimeline()
		if terr != nil {
			// A torn ring never fails the audit — report and move on.
			fmt.Fprintln(os.Stderr, "poseidon-fsck: black-box timeline:", terr)
		}
		rep.Timeline = tl
	}
	if repair && rep.Repaired > 0 {
		if err := h.SaveFile(path); err != nil {
			return rep, fmt.Errorf("saving repaired image: %w", err)
		}
	}
	return rep, nil
}
