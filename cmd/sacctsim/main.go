// Command sacctsim queries a synthetic accounting trace the way sacct
// queries slurmdbd: field selection, a submit-time window, and record
// filters, printed as pipe-separated text.
//
// Example:
//
//	sacctsim -trace frontier.trace -S 2024-01-01 -E 2024-02-01 \
//	  -o JobID,User,State,Elapsed,NNodes -s FAILED
//
// -convert rewrites the trace as a binary columnar shard file, the text
// → colstore migration:
//
//	sacctsim -trace frontier.trace -convert frontier.colstore
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"slurmsight/internal/sacct"
	"slurmsight/internal/slurm"
)

func parseDay(s, name string) time.Time {
	if s == "" {
		return time.Time{}
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		log.Fatalf("bad %s: %v", name, err)
	}
	return t
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sacctsim: ")

	var (
		trace     = flag.String("trace", "trace.txt", "accounting dump to query")
		startS    = flag.String("S", "", "window start (YYYY-MM-DD)")
		endS      = flag.String("E", "", "window end, exclusive (YYYY-MM-DD)")
		fields    = flag.String("o", "", "comma-separated output fields (default: full curated selection)")
		steps     = flag.Bool("steps", false, "include step records (default: jobs only, like sacct -X)")
		user      = flag.String("u", "", "filter by user")
		account   = flag.String("A", "", "filter by account")
		partition = flag.String("r", "", "filter by partition")
		state     = flag.String("s", "", "filter by final state")
		listOnly  = flag.Bool("months", false, "list populated months and exit")
		jobID     = flag.String("j", "", "show one job and its steps, then exit")
		convert   = flag.String("convert", "", "write the trace to this path as a binary columnar store, then exit")
	)
	flag.Parse()

	// A columnar trace opens lazily, so a projected query (-o) decodes only
	// the selected columns.
	store, malformed, err := sacct.OpenFile(*trace)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	if malformed > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d malformed rows dropped on load\n", malformed)
	}
	if *convert != "" {
		if err := store.DumpBinaryFile(*convert); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%d rows -> %s\n", store.Len(), *convert)
		return
	}
	if *listOnly {
		for _, m := range store.Months() {
			fmt.Println(m)
		}
		return
	}

	if *jobID != "" {
		id, err := slurm.ParseJobIDBytes([]byte(*jobID))
		if err != nil {
			log.Fatal(err)
		}
		shown := 0
		enc, err := slurm.NewEncoder([]string{"JobID", "User", "State", "Start", "Elapsed", "Timelimit", "NNodes", "NCPUS", "Backfill", "Reason"})
		if err != nil {
			log.Fatal(err)
		}
		out := append(enc.AppendHeader(nil), '\n')
		for r, err := range store.Scan(sacct.Query{IncludeSteps: true}) {
			if err != nil {
				log.Fatal(err)
			}
			if r.ID.Job != id.Job {
				continue
			}
			out = append(enc.AppendRecord(out, r), '\n')
			shown++
		}
		os.Stdout.Write(out)
		if shown == 0 {
			log.Fatalf("job %s not found", *jobID)
		}
		return
	}

	q := sacct.Query{
		Start:        parseDay(*startS, "-S"),
		End:          parseDay(*endS, "-E"),
		IncludeSteps: *steps,
		User:         *user,
		Account:      *account,
		Partition:    *partition,
		State:        *state,
	}
	if *fields != "" {
		q.Fields = strings.Split(*fields, ",")
	}
	n, err := store.Write(os.Stdout, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%d rows\n", n)
}
