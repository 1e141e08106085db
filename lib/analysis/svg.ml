type t = { width : float; height : float; buf : Buffer.t }

let create ~width ~height =
  let buf = Buffer.create 4096 in
  { width; height; buf }

let escape s =
  let out = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string out "&lt;"
      | '>' -> Buffer.add_string out "&gt;"
      | '&' -> Buffer.add_string out "&amp;"
      | '"' -> Buffer.add_string out "&quot;"
      | c -> Buffer.add_char out c)
    s;
  Buffer.contents out

let rect t ~x ~y ~w ~h ?(fill = "#4878a8") () =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"%s\" stroke=\"none\" opacity=\"1.00\"/>\n"
       x y (Float.max 0.0 w) (Float.max 0.0 h) fill)

let line t ~x1 ~y1 ~x2 ~y2 ?(stroke = "#333333") ?(width = 1.0) () =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\" stroke-width=\"%.1f\"/>\n"
       x1 y1 x2 y2 stroke width)

let polyline t points ?(stroke = "#4878a8") () =
  let pts =
    String.concat " " (List.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" x y) points)
  in
  Buffer.add_string t.buf
    (Printf.sprintf
       "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"/>\n"
       pts stroke)

let circle t ~cx ~cy ~r =
  Buffer.add_string t.buf
    (Printf.sprintf "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\" fill=\"#4878a8\"/>\n" cx
       cy r)

let text t ~x ~y ?(size = 11.0) ?(anchor = `Start) ?rotate s =
  let anchor_str =
    match anchor with `Start -> "start" | `Middle -> "middle" | `End -> "end"
  in
  let transform =
    match rotate with
    | Some deg -> Printf.sprintf " transform=\"rotate(%.1f %.1f %.1f)\"" deg x y
    | None -> ""
  in
  Buffer.add_string t.buf
    (Printf.sprintf
       "<text x=\"%.1f\" y=\"%.1f\" font-size=\"%.1f\" font-family=\"sans-serif\" text-anchor=\"%s\" fill=\"#222222\"%s>%s</text>\n"
       x y size anchor_str transform (escape s))

let to_string t =
  Printf.sprintf
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n<rect width=\"%.0f\" height=\"%.0f\" fill=\"white\"/>\n%s</svg>\n"
    t.width t.height t.width t.height t.width t.height (Buffer.contents t.buf)

let write t path = Report.write_file path (to_string t)

let palette_colors =
  [| "#4878a8"; "#e1812c"; "#3a923a"; "#c03d3e"; "#8172b2"; "#937860";
     "#d684bd"; "#8c8c8c" |]

let palette i = palette_colors.(((i mod 8) + 8) mod 8)
