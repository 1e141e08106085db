let csv_escape field =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') field
  in
  if not needs_quote then field
  else begin
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let csv_of_rows ~header rows =
  let line fields = String.concat "," (List.map csv_escape fields) in
  String.concat "\n" (line header :: List.map line rows) ^ "\n"

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let histogram_rows h =
  let counts = Netcore.Histogram.counts h in
  let fracs = Netcore.Histogram.fractions h in
  List.init (Array.length counts) (fun i ->
      [
        Netcore.Histogram.bin_label h i;
        string_of_int counts.(i);
        Printf.sprintf "%.6f" fracs.(i);
      ])

let occurrence_rows table =
  List.map (fun (tok, pct) -> [ tok; Printf.sprintf "%.4f" pct ]) table

let flow_rows summaries =
  List.map
    (fun (f : Flows.summary) ->
      [
        f.Flows.flow_key;
        (* Weighted frame estimates are integral for unthinned samples;
           keep those rows exact and readable. *)
        (if Float.is_integer f.Flows.frames then
           string_of_int (int_of_float f.Flows.frames)
         else Printf.sprintf "%.2f" f.Flows.frames);
        Printf.sprintf "%.0f" f.Flows.bytes;
        Printf.sprintf "%.3f" f.Flows.first_seen;
        Printf.sprintf "%.3f" f.Flows.last_seen;
        (if f.Flows.rst_seen then "1" else "0");
      ])
    summaries
