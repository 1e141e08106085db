type axis = { label : string; log : bool }

(* Plot geometry shared by every chart. *)
let margin_left = 70.0
let margin_right = 20.0
let margin_top = 40.0
let margin_bottom = 70.0

type frame = {
  svg : Svg.t;
  x0 : float;
  y0 : float;  (* bottom-left corner of the plot area *)
  plot_w : float;
  plot_h : float;
}

let make_frame ~title ~width ~height =
  let svg = Svg.create ~width ~height in
  let plot_w = width -. margin_left -. margin_right in
  let plot_h = height -. margin_top -. margin_bottom in
  Svg.text svg ~x:(width /. 2.0) ~y:20.0 ~size:14.0 ~anchor:`Middle title;
  (* Axes. *)
  let x0 = margin_left and y0 = margin_top +. plot_h in
  Svg.line svg ~x1:x0 ~y1:y0 ~x2:(x0 +. plot_w) ~y2:y0 ();
  Svg.line svg ~x1:x0 ~y1:y0 ~x2:x0 ~y2:margin_top ();
  { svg; x0; y0; plot_w; plot_h }

let nice_ceiling v =
  if v <= 0.0 then 1.0
  else begin
    let mag = 10.0 ** Float.of_int (int_of_float (Float.floor (log10 v))) in
    let n = v /. mag in
    let m = if n <= 1.0 then 1.0 else if n <= 2.0 then 2.0 else if n <= 5.0 then 5.0 else 10.0 in
    m *. mag
  end

let fmt_tick v =
  if Float.abs v >= 1e12 then Printf.sprintf "%.1fT" (v /. 1e12)
  else if Float.abs v >= 1e9 then Printf.sprintf "%.1fG" (v /. 1e9)
  else if Float.abs v >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
  else if Float.abs v >= 1e3 then Printf.sprintf "%.0fk" (v /. 1e3)
  else if Float.abs v >= 10.0 || v = 0.0 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2g" v

(* Linear or log y scaling onto the plot area. *)
let y_scaler (axis : axis) ~max_value f =
  if axis.log then begin
    let top = Float.max 10.0 (nice_ceiling max_value) in
    let lo = 1.0 in
    fun v ->
      let v = Float.max lo v in
      f.y0 -. (log (v /. lo) /. log (top /. lo) *. f.plot_h)
  end
  else begin
    let top = nice_ceiling max_value in
    fun v -> f.y0 -. (v /. top *. f.plot_h)
  end

let draw_y_ticks (axis : axis) ~max_value f =
  let scale = y_scaler axis ~max_value f in
  let top = if axis.log then Float.max 10.0 (nice_ceiling max_value) else nice_ceiling max_value in
  let ticks =
    if axis.log then begin
      let rec gen v acc = if v > top then acc else gen (v *. 10.0) (v :: acc) in
      gen 1.0 []
    end
    else List.init 5 (fun i -> top *. float_of_int (i + 1) /. 5.0)
  in
  List.iter
    (fun v ->
      let y = scale v in
      Svg.line f.svg ~x1:(f.x0 -. 4.0) ~y1:y ~x2:f.x0 ~y2:y ();
      Svg.line f.svg ~x1:f.x0 ~y1:y ~x2:(f.x0 +. f.plot_w) ~y2:y
        ~stroke:"#dddddd" ~width:0.5 ();
      Svg.text f.svg ~x:(f.x0 -. 8.0) ~y:(y +. 4.0) ~anchor:`End (fmt_tick v))
    ticks;
  Svg.text f.svg ~x:16.0
    ~y:(f.y0 -. (f.plot_h /. 2.0))
    ~anchor:`Middle ~rotate:(-90.0) axis.label;
  scale

let draw_x_label f label =
  Svg.text f.svg
    ~x:(f.x0 +. (f.plot_w /. 2.0))
    ~y:(f.y0 +. 50.0) ~anchor:`Middle label

let x_category_label f ~index ~count label =
  let slot = f.plot_w /. float_of_int (max 1 count) in
  let cx = f.x0 +. (slot *. (float_of_int index +. 0.5)) in
  if count <= 30 || index mod (count / 30 + 1) = 0 then
    Svg.text f.svg ~x:cx ~y:(f.y0 +. 14.0) ~size:9.0 ~anchor:`End ~rotate:(-45.0)
      label;
  (cx, slot)

let legend f names =
  List.iteri
    (fun i name ->
      let y = margin_top +. (14.0 *. float_of_int i) in
      let x = f.x0 +. f.plot_w -. 110.0 in
      Svg.rect f.svg ~x ~y:(y -. 8.0) ~w:10.0 ~h:10.0 ~fill:(Svg.palette i) ();
      Svg.text f.svg ~x:(x +. 14.0) ~y ~size:10.0 name)
    names

let bar_chart ~title ~x_axis ~y_axis data =
  let f = make_frame ~title ~width:720.0 ~height:400.0 in
  let max_value = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 data in
  let scale = draw_y_ticks y_axis ~max_value f in
  let n = List.length data in
  List.iteri
    (fun i (label, v) ->
      let cx, slot = x_category_label f ~index:i ~count:n label in
      let bar_w = slot *. 0.7 in
      let y = scale v in
      Svg.rect f.svg ~x:(cx -. (bar_w /. 2.0)) ~y ~w:bar_w ~h:(f.y0 -. y) ())
    data;
  draw_x_label f x_axis;
  f.svg

let grouped_bar_chart ~title ~x_axis ~y_axis ~series data =
  let f = make_frame ~title ~width:760.0 ~height:420.0 in
  let max_value =
    List.fold_left
      (fun acc (_, vs) -> List.fold_left Float.max acc vs)
      0.0 data
  in
  let scale = draw_y_ticks y_axis ~max_value f in
  let n = List.length data in
  let k = max 1 (List.length series) in
  List.iteri
    (fun i (label, vs) ->
      let cx, slot = x_category_label f ~index:i ~count:n label in
      let group_w = slot *. 0.8 in
      let bar_w = group_w /. float_of_int k in
      List.iteri
        (fun j v ->
          let x = cx -. (group_w /. 2.0) +. (bar_w *. float_of_int j) in
          let y = scale v in
          Svg.rect f.svg ~x ~y ~w:(bar_w *. 0.9) ~h:(f.y0 -. y)
            ~fill:(Svg.palette j) ())
        vs)
    data;
  legend f series;
  draw_x_label f x_axis;
  f.svg

let stacked_bar_chart ~title ~x_axis ~y_axis ~series data =
  let f = make_frame ~title ~width:860.0 ~height:420.0 in
  let max_value =
    List.fold_left
      (fun acc (_, vs) -> Float.max acc (List.fold_left ( +. ) 0.0 vs))
      0.0 data
  in
  let scale = draw_y_ticks y_axis ~max_value f in
  let n = List.length data in
  List.iteri
    (fun i (label, vs) ->
      let cx, slot = x_category_label f ~index:i ~count:n label in
      let bar_w = slot *. 0.8 in
      let acc = ref 0.0 in
      List.iteri
        (fun j v ->
          let y_bottom = scale !acc in
          acc := !acc +. v;
          let y_top = scale !acc in
          Svg.rect f.svg ~x:(cx -. (bar_w /. 2.0)) ~y:y_top ~w:bar_w
            ~h:(y_bottom -. y_top) ~fill:(Svg.palette j) ())
        vs)
    data;
  legend f series;
  draw_x_label f x_axis;
  f.svg

let line_chart ~title ~x_axis ~y_axis series_data =
  let f = make_frame ~title ~width:860.0 ~height:420.0 in
  let all_points = List.concat_map snd series_data in
  let max_y = List.fold_left (fun acc (_, y) -> Float.max acc y) 0.0 all_points in
  let min_x, max_x =
    List.fold_left
      (fun (lo, hi) (x, _) -> (Float.min lo x, Float.max hi x))
      (infinity, neg_infinity) all_points
  in
  let scale_y = draw_y_ticks y_axis ~max_value:max_y f in
  let span = if max_x > min_x then max_x -. min_x else 1.0 in
  let scale_x x = f.x0 +. ((x -. min_x) /. span *. f.plot_w) in
  (* A few x ticks. *)
  List.iter
    (fun frac ->
      let x = min_x +. (frac *. span) in
      let px = scale_x x in
      Svg.line f.svg ~x1:px ~y1:f.y0 ~x2:px ~y2:(f.y0 +. 4.0) ();
      Svg.text f.svg ~x:px ~y:(f.y0 +. 16.0) ~size:9.0 ~anchor:`Middle (fmt_tick x))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  List.iteri
    (fun i (_, points) ->
      let pts = List.map (fun (x, y) -> (scale_x x, scale_y y)) points in
      Svg.polyline f.svg pts ~stroke:(Svg.palette i) ())
    series_data;
  legend f (List.map fst series_data);
  draw_x_label f x_axis;
  f.svg

let cdf_chart ~title ~x_axis points =
  let f = make_frame ~title ~width:640.0 ~height:400.0 in
  let scale_y = draw_y_ticks { label = "CDF (%)"; log = false } ~max_value:100.0 f in
  let min_x, max_x =
    List.fold_left
      (fun (lo, hi) (x, _) -> (Float.min lo x, Float.max hi x))
      (infinity, neg_infinity) points
  in
  let span = if max_x > min_x then max_x -. min_x else 1.0 in
  let scale_x x = f.x0 +. ((x -. min_x) /. span *. f.plot_w) in
  List.iter
    (fun frac ->
      let x = min_x +. (frac *. span) in
      let px = scale_x x in
      Svg.text f.svg ~x:px ~y:(f.y0 +. 16.0) ~size:9.0 ~anchor:`Middle (fmt_tick x))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  let pts = List.map (fun (x, y) -> (scale_x x, scale_y (100.0 *. y))) points in
  Svg.polyline f.svg pts ();
  List.iter (fun (x, y) -> Svg.circle f.svg ~cx:x ~cy:y ~r:2.5) pts;
  draw_x_label f x_axis;
  f.svg

let histogram_chart ~title ~x_axis hist =
  let counts = Netcore.Histogram.counts hist in
  let data =
    Array.to_list
      (Array.mapi
         (fun i c -> (Netcore.Histogram.bin_label hist i, float_of_int c))
         counts)
  in
  bar_chart ~title ~x_axis ~y_axis:{ label = "frames"; log = false } data
