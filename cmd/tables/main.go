// Command tables regenerates the paper's Tables 1, 2, and 3.
//
// Tables 2 and 3 are printed from the closed-form models in
// internal/analytic. The simulated columns (the RMT pipelines' measured
// packet rate, the flit-level mesh's saturation) are measured by the root
// package's benchmarks and held to the paper by TestPaperVerdicts.
//
// Usage:
//
//	tables [-table 1|2|3|all]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/panic-nic/panic/internal/analytic"
	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/stats"
)

func main() {
	table := flag.String("table", "all", "which table to print: 1, 2, 3, or all")
	flag.Parse()

	switch *table {
	case "1":
		printTable1()
	case "2":
		printTable2()
	case "3":
		printTable3()
	case "all":
		printTable1()
		fmt.Println()
		printTable2()
		fmt.Println()
		printTable3()
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
}

func printTable1() {
	fmt.Println("Table 1: offload types used by prior work")
	fmt.Print(core.Table1Render())
}

func printTable2() {
	fmt.Println("Table 2: PPS needed for line-rate forwarding of minimum-size packets (RX+TX)")
	t := stats.NewTable("Line-rate", "# Eth Ports", "PPS (paper)", "PPS (exact)")
	for _, r := range analytic.Table2() {
		t.AddRow(
			fmt.Sprintf("%.0fGbps", r.LineRateGbps),
			r.Ports,
			fmt.Sprintf("%.0fMpps", r.MppsPaper),
			fmt.Sprintf("%.1fMpps", r.MppsExact),
		)
	}
	fmt.Print(t.String())
}

func printTable3() {
	fmt.Println("Table 3: on-chip mesh throughput and sustainable chain length")
	t := stats.NewTable("Line-rate", "Freq", "Bit Width", "Topo", "Bisec BW", "Capacity", "Chain Len")
	for _, r := range analytic.Table3() {
		p := r.Params
		t.AddRow(
			fmt.Sprintf("%.0fGbps x%d", p.LineRateGbps, p.Ports),
			fmt.Sprintf("%.0fMHz", p.FreqHz/1e6),
			p.WidthBits,
			p.Topology(),
			fmt.Sprintf("%.0fGbps", r.BisectionGbps),
			fmt.Sprintf("%.0fGbps", r.CapacityGbps),
			fmt.Sprintf("%.2f", r.ChainLen),
		)
	}
	fmt.Print(t.String())
}
