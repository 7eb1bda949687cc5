package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"darwinwga/internal/genome"
	"darwinwga/internal/indexstore"
	"darwinwga/internal/seed"
	"darwinwga/internal/stats"
)

// indexMain dispatches the index lifecycle subcommands:
//
//	darwin-wga index build   -target t.fa -out t.dwx [-seed-pattern P] [-max-freq N]
//	darwin-wga index inspect -in t.dwx
//	darwin-wga index verify  -in t.dwx [-target t.fa] [-seed-pattern P] [-max-freq N]
//
// build serializes a target's D-SOFT index so `serve -index-dir` can
// load it near-instantly instead of rebuilding at startup; inspect
// prints a file's header as JSON without loading the position table;
// verify checks the full file (magic, version, CRCs, geometry) and,
// with -target, that it matches the assembly's content fingerprint.
func indexMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "darwin-wga index: want a subcommand: build, inspect, or verify")
		return 2
	}
	switch args[0] {
	case "build":
		return indexBuildMain(args[1:])
	case "inspect":
		return indexInspectMain(args[1:])
	case "verify":
		return indexVerifyMain(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "darwin-wga index: unknown subcommand %q (want build, inspect, or verify)\n", args[0])
		return 2
	}
}

// indexSeedFlags registers the index-shaping flags shared by build and
// verify. The defaults mirror core.DefaultConfig so a file built with
// no flags matches a server run with no flags.
func indexSeedFlags(fs *flag.FlagSet) (pattern *string, maxFreq *int) {
	pattern = fs.String("seed-pattern", seed.DefaultPattern, "spaced-seed pattern (1 = care, 0 = don't care)")
	maxFreq = fs.Int("max-freq", 30, "mask seeds occurring more than this often in the target (0 = no masking)")
	return pattern, maxFreq
}

func indexBuildMain(args []string) int {
	fs := flag.NewFlagSet("darwin-wga index build", flag.ContinueOnError)
	targetPath := fs.String("target", "", "target genome FASTA to index")
	outPath := fs.String("out", "", "output index file (conventionally <target name>.dwx inside the serve -index-dir)")
	pattern, maxFreq := indexSeedFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *targetPath == "" || *outPath == "" {
		fmt.Fprintln(os.Stderr, "darwin-wga index build: -target and -out are required")
		fs.Usage()
		return 2
	}
	shape, err := seed.ParseShape(*pattern)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga index build:", err)
		return 2
	}
	asm, err := genome.ReadFASTAFile(*targetPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga index build:", err)
		return 1
	}
	bases, _ := genome.Concat(asm.Seqs)
	start := time.Now()
	ix, err := seed.BuildIndex(bases, shape, seed.IndexOptions{MaxFreq: *maxFreq})
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga index build:", err)
		return 1
	}
	fp := indexstore.FingerprintBases(bases)
	if err := indexstore.Write(*outPath, ix, fp); err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga index build:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "darwin-wga index build: wrote %s (%s bases, fingerprint %s, %s index bytes) in %v\n",
		*outPath, stats.Comma(int64(len(bases))), fp, stats.Comma(int64(ix.MemoryBytes())), time.Since(start).Round(time.Millisecond))
	return 0
}

func indexInspectMain(args []string) int {
	fs := flag.NewFlagSet("darwin-wga index inspect", flag.ContinueOnError)
	inPath := fs.String("in", "", "index file to inspect")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *inPath == "" {
		fmt.Fprintln(os.Stderr, "darwin-wga index inspect: -in is required")
		fs.Usage()
		return 2
	}
	hdr, err := indexstore.ReadHeader(*inPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga index inspect:", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(hdr); err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga index inspect:", err)
		return 1
	}
	return 0
}

func indexVerifyMain(args []string) int {
	fs := flag.NewFlagSet("darwin-wga index verify", flag.ContinueOnError)
	inPath := fs.String("in", "", "index file to verify")
	targetPath := fs.String("target", "", "optionally verify against this target FASTA's content fingerprint")
	pattern, maxFreq := indexSeedFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *inPath == "" {
		fmt.Fprintln(os.Stderr, "darwin-wga index verify: -in is required")
		fs.Usage()
		return 2
	}
	var (
		hdr *indexstore.Header
		err error
	)
	if *targetPath != "" {
		asm, rerr := genome.ReadFASTAFile(*targetPath)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "darwin-wga index verify:", rerr)
			return 1
		}
		bases, _ := genome.Concat(asm.Seqs)
		_, hdr, err = indexstore.LoadForTarget(*inPath, indexstore.FingerprintBases(bases), *pattern, *maxFreq)
	} else {
		// Full decode: every frame's CRC and the geometry invariants are
		// checked, not just the header.
		_, hdr, err = indexstore.Load(*inPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "darwin-wga index verify:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "darwin-wga index verify: %s OK (format v%d, target fingerprint %s, %s positions)\n",
		*inPath, hdr.FormatVersion, hdr.TargetFingerprint, stats.Comma(int64(hdr.Positions)))
	return 0
}
