// Package report renders experiment results as a self-contained HTML
// document with inline SVG charts — no external assets, viewable from
// a file:// URL. cmd/mrexperiments uses it to produce a visual
// counterpart of the paper's figures.
package report

import (
	"fmt"
	"html"
	"io"
	"math"
	"strings"
)

// Document is a titled sequence of sections.
type Document struct {
	Title    string
	Subtitle string
	Sections []Section
}

// Section holds one artifact: a caption plus a chart and/or a table.
type Section struct {
	Title   string
	Caption string
	Chart   *BarChart
	Table   *Table
}

// BarGroup is one x-axis position with one bar per series.
type BarGroup struct {
	Label  string
	Values []float64
}

// BarChart is a grouped bar chart (the paper's figure style).
type BarChart struct {
	YLabel string
	Series []string
	Groups []BarGroup
	// ValueFormat formats bar value labels; default "%.0f".
	ValueFormat string
}

// Table is a plain header+rows table.
type Table struct {
	Header []string
	Rows   [][]string
}

// seriesPalette cycles for however many series a chart has.
var seriesPalette = []string{"#4878a8", "#e49444", "#5ba053", "#d1605e", "#857aab", "#937860"}

// AddChart appends a chart section.
func (d *Document) AddChart(title, caption string, chart *BarChart) {
	d.Sections = append(d.Sections, Section{Title: title, Caption: caption, Chart: chart})
}

// AddTable appends a table section.
func (d *Document) AddTable(title, caption string, table *Table) {
	d.Sections = append(d.Sections, Section{Title: title, Caption: caption, Table: table})
}

// RenderHTML writes the document as a standalone HTML page.
func (d *Document) RenderHTML(w io.Writer) error {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(d.Title))
	b.WriteString(`<style>
body { font-family: -apple-system, "Segoe UI", Helvetica, Arial, sans-serif;
       max-width: 960px; margin: 2rem auto; padding: 0 1rem; color: #222; }
h1 { border-bottom: 2px solid #4878a8; padding-bottom: .3rem; }
h2 { margin-top: 2.5rem; }
p.caption { color: #555; max-width: 70ch; }
table { border-collapse: collapse; margin: 1rem 0; font-size: .9rem; }
th, td { border: 1px solid #ccc; padding: .35rem .6rem; text-align: right; }
th { background: #f0f4f8; }
td:first-child, th:first-child { text-align: left; }
svg { margin: 1rem 0; }
footer { margin-top: 3rem; color: #888; font-size: .8rem; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(d.Title))
	if d.Subtitle != "" {
		fmt.Fprintf(&b, "<p class=\"caption\">%s</p>\n", html.EscapeString(d.Subtitle))
	}
	for _, s := range d.Sections {
		fmt.Fprintf(&b, "<h2>%s</h2>\n", html.EscapeString(s.Title))
		if s.Caption != "" {
			fmt.Fprintf(&b, "<p class=\"caption\">%s</p>\n", html.EscapeString(s.Caption))
		}
		if s.Chart != nil {
			b.WriteString(s.Chart.SVG(760, 320))
		}
		if s.Table != nil {
			s.Table.writeHTML(&b)
		}
	}
	b.WriteString("<footer>Generated by cmd/mrexperiments — MRONLINE reproduction.</footer>\n")
	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func (t *Table) writeHTML(b *strings.Builder) {
	b.WriteString("<table><tr>")
	for _, h := range t.Header {
		fmt.Fprintf(b, "<th>%s</th>", html.EscapeString(h))
	}
	b.WriteString("</tr>\n")
	for _, row := range t.Rows {
		b.WriteString("<tr>")
		for _, cell := range row {
			fmt.Fprintf(b, "<td>%s</td>", html.EscapeString(cell))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n")
}

// SVG renders the chart at the given pixel size.
func (c *BarChart) SVG(width, height int) string {
	if len(c.Groups) == 0 {
		return ""
	}
	valueFormat := c.ValueFormat
	if valueFormat == "" {
		valueFormat = "%.0f"
	}
	maxV := 0.0
	for _, g := range c.Groups {
		for _, v := range g.Values {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	// Round the axis top to a pleasant value.
	axisTop := niceCeil(maxV)

	const marginL, marginR, marginT, marginB = 64, 16, 28, 56
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)

	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" xmlns="http://www.w3.org/2000/svg" font-family="sans-serif" font-size="11">`, width, height)
	b.WriteString("\n")

	// Y axis with 4 gridlines.
	for i := 0; i <= 4; i++ {
		v := axisTop * float64(i) / 4
		y := float64(marginT) + float64(plotH*(1-v/axisTop))
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`, marginL, y, width-marginR, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" fill="#555">%s</text>`,
			marginL-6, y+4, formatTick(v))
		b.WriteString("\n")
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%d" transform="rotate(-90 14 %d)" text-anchor="middle" fill="#333">%s</text>`,
			marginT+int(plotH)/2, marginT+int(plotH)/2, html.EscapeString(c.YLabel))
		b.WriteString("\n")
	}

	nGroups := len(c.Groups)
	nSeries := 1
	for _, g := range c.Groups {
		if len(g.Values) > nSeries {
			nSeries = len(g.Values)
		}
	}
	groupW := plotW / float64(nGroups)
	barW := groupW * 0.8 / float64(nSeries)

	for gi, g := range c.Groups {
		gx := float64(marginL) + float64(groupW*float64(gi)) + float64(groupW*0.1)
		for si, v := range g.Values {
			h := plotH * v / axisTop
			x := gx + float64(barW*float64(si))
			y := float64(marginT) + plotH - h
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`,
				x, y, barW-2, h, seriesPalette[si%len(seriesPalette)])
			// Value label above the bar.
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle" fill="#333">%s</text>`,
				x+float64(barW/2)-1, y-3, fmt.Sprintf(valueFormat, v))
			b.WriteString("\n")
		}
		// Group label.
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle" fill="#333">%s</text>`,
			gx+float64(groupW*0.4), height-marginB+16, html.EscapeString(g.Label))
		b.WriteString("\n")
	}

	// Legend.
	lx := marginL
	ly := height - marginB + 34
	for si, name := range c.Series {
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`,
			lx, ly-9, seriesPalette[si%len(seriesPalette)])
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#333">%s</text>`, lx+14, ly, html.EscapeString(name))
		b.WriteString("\n")
		lx += 14 + 8*len(name) + 24
	}

	// Axis line.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`,
		marginL, marginT+int(plotH), width-marginR, marginT+int(plotH))
	b.WriteString("</svg>\n")
	return b.String()
}

// niceCeil rounds up to 1/2/2.5/5 times a power of ten.
func niceCeil(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 2, 2.5, 5, 10} {
		if v <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}

func formatTick(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
