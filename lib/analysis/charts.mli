(** Chart construction over {!Svg} — the reproduction's counterpart of
    the paper's visualization scripts.

    Each chart takes plain data (labels and numbers) and produces a
    standalone SVG document with axes, ticks and a title.  {!Figures}
    maps profiles and experiment results onto these charts. *)

type axis = { label : string; log : bool }

val bar_chart :
  title:string ->
  x_axis:string ->
  y_axis:axis ->
  (string * float) list ->
  Svg.t
(** Vertical bars, one per labelled value, on a 720 x 400 canvas. *)

val grouped_bar_chart :
  title:string ->
  x_axis:string ->
  y_axis:axis ->
  series:string list ->
  (string * float list) list ->
  Svg.t
(** Bars grouped per label, one bar per series, with a legend
    (760 x 420). *)

val stacked_bar_chart :
  title:string ->
  x_axis:string ->
  y_axis:axis ->
  series:string list ->
  (string * float list) list ->
  Svg.t
(** Stacked bars (Fig. 10's per-day outcome counts; 860 x 420). *)

val line_chart :
  title:string ->
  x_axis:string ->
  y_axis:axis ->
  (string * (float * float) list) list ->
  Svg.t
(** One polyline per named series, with a legend (860 x 420). *)

val cdf_chart :
  title:string ->
  x_axis:string ->
  (float * float) list ->
  Svg.t
(** A CDF: y in [0,1] rendered as percentages (640 x 400). *)

val histogram_chart :
  title:string ->
  x_axis:string ->
  Netcore.Histogram.t ->
  Svg.t
(** Bars over the histogram's bins, labelled with the bin ranges
    (720 x 400). *)
