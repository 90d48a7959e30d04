// Command report produces a single self-contained HTML reproduction
// report: the certificate checks, then every Figure 2 panel rendered
// inline as SVG with its data table alongside (time-series tables are
// omitted). It renders one greencell.Reproduce run over PaperGrid
// (QuickGrid with -quick); the same flags give the same bytes.
//
// Usage:
//
//	report [-out report.html] [-slots N] [-seed N] [-quick]
package main

import (
	"errors"
	"flag"
	"fmt"
	"html/template"
	"os"
	"strings"

	"greencell"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

// maxTableRows is the longest table shown; longer panels are time series.
const maxTableRows = 20

type figure struct {
	SVG     template.HTML
	Caption string
	Header  []string
	Rows    [][]string
}

type reportData struct {
	Slots   int
	Seed    int64
	Checks  []greencell.Check
	Figures []figure
}

func run(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	var (
		out   = fs.String("out", "report.html", "output file")
		slots = fs.Int("slots", 100, "slots per run")
		seed  = fs.Int64("seed", 1, "scenario seed")
		quick = fs.Bool("quick", false, "fewer sweep points")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc := greencell.PaperScenario()
	sc.Slots = *slots
	sc.Seed = *seed
	grid := greencell.PaperGrid
	if *quick {
		grid = greencell.QuickGrid
	}
	rep, err := greencell.Reproduce(sc, grid)
	if err != nil {
		return err
	}

	data := reportData{Slots: *slots, Seed: *seed, Checks: rep.Checks}
	for _, p := range rep.Panels() {
		var svg strings.Builder
		if err := p.SVG(&svg); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		fig := figure{SVG: template.HTML(svg.String()), Caption: p.Caption}
		if len(p.Rows) <= maxTableRows {
			fig.Header = p.Header
			for _, row := range p.Rows {
				cells := make([]string, len(row))
				for i, v := range row {
					cells[i] = fmt.Sprintf("%.5g", v)
				}
				fig.Rows = append(fig.Rows, cells)
			}
		}
		data.Figures = append(data.Figures, fig)
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := page.Execute(f, data); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	return nil
}

var page = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>greencell reproduction report</title>
<style>
 body { font-family: Helvetica, Arial, sans-serif; color: #0b0b0b; background: #fcfcfb;
        max-width: 760px; margin: 2em auto; padding: 0 1em; }
 h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
 table { border-collapse: collapse; margin: 1em 0; font-size: 0.9em; }
 td, th { border: 1px solid #e7e6e2; padding: 4px 10px; text-align: left; }
 th { background: #f3f2ef; }
 .pass { color: #008300; font-weight: 600; } .fail { color: #e34948; font-weight: 600; }
 .note { color: #52514e; font-size: 0.85em; margin: 0.3em 0 1.5em; }
 figure { margin: 1.5em 0; }
</style></head><body>
<h1>greencell — reproduction report</h1>
<p class="note">Optimal Energy Cost for Strongly Stable Multi-hop Green Cellular
Networks (ICDCS 2014) · {{.Slots}} slots · seed {{.Seed}}</p>

<h2>Certificate checks</h2>
<table><tr><th>check</th><th>status</th><th>detail</th></tr>
{{range .Checks}}<tr><td>{{.Name}}</td>
<td class="{{if .OK}}pass{{else}}fail{{end}}">{{if .OK}}PASS{{else}}FAIL{{end}}</td>
<td>{{.Info}}</td></tr>{{end}}
</table>

<h2>Figure 2</h2>
{{range .Figures}}
<figure>{{.SVG}}<figcaption class="note">{{.Caption}}</figcaption></figure>
{{if .Rows}}<table><tr>{{range .Header}}<th>{{.}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}
</table>{{end}}
{{end}}
</body></html>
`))
