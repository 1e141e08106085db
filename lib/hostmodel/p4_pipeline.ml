type action =
  | A_pass
  | A_drop
  | A_accept
  | A_truncate of int
  | A_sample of int
  | A_anonymize of Anonymize.t
  | A_count of string

type entry = { matches : Packet.Filter.t; actions : action list }

type table = { table_name : string; entries : entry list; default : action list }

type t = {
  tables : table list;
  counters : (string, int) Hashtbl.t;
  (* Per-(table, entry, action position) sampler state for A_sample:
     systematic 1-in-N needs a persistent modulo counter per action
     site, exactly like a P4 register. *)
  samplers : (string, int) Hashtbl.t;
}

let create tables =
  { tables; counters = Hashtbl.create 16; samplers = Hashtbl.create 16 }

type verdict = { frame : Packet.Frame.t option; forwarded_bytes : int }

let bump t name =
  Hashtbl.replace t.counters name
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let sampler_hit t key n =
  let seen = Option.value ~default:0 (Hashtbl.find_opt t.samplers key) in
  Hashtbl.replace t.samplers key (seen + 1);
  seen mod n = 0

type outcome = Continue | Stop_drop | Stop_accept

let process t frame0 =
  let frame = ref frame0 in
  (* No action changes a frame's length: anonymizing rewrites addresses
     and truncation is kept apart, so one length serves every match and
     the verdict. *)
  let wire_len = Packet.Frame.wire_length frame0 in
  let truncation = ref max_int in
  let run_actions table_idx entry_idx actions =
    let rec go i = function
      | [] -> Continue
      | action :: rest -> (
        match action with
        | A_pass -> go (i + 1) rest
        | A_drop -> Stop_drop
        | A_accept -> Stop_accept
        | A_truncate n ->
          truncation := min !truncation n;
          go (i + 1) rest
        | A_sample n ->
          if n <= 0 then invalid_arg "P4_pipeline: sample modulus must be positive";
          let key = Printf.sprintf "s%d.%d.%d" table_idx entry_idx i in
          if sampler_hit t key n then go (i + 1) rest else Stop_drop
        | A_anonymize anon ->
          frame := Anonymize.frame anon !frame;
          go (i + 1) rest
        | A_count name ->
          bump t name;
          go (i + 1) rest)
    in
    go 0 actions
  in
  let rec run_tables table_idx = function
    | [] -> Continue
    | table :: rest -> (
      let rec first_entry entry_idx = function
        | [] -> run_actions table_idx (-1) table.default
        | e :: more ->
          if Packet.Filter.matches ~wire_len e.matches !frame then
            run_actions table_idx entry_idx e.actions
          else first_entry (entry_idx + 1) more
      in
      match first_entry 0 table.entries with
      | Continue -> run_tables (table_idx + 1) rest
      | (Stop_drop | Stop_accept) as stop -> stop)
  in
  match run_tables 0 t.tables with
  | Stop_drop -> { frame = None; forwarded_bytes = 0 }
  | Continue | Stop_accept ->
    { frame = Some !frame; forwarded_bytes = min wire_len !truncation }

let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)

let counters t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let stage_count t = List.length t.tables

module Compile = struct
  let of_filter ?(truncation = 200) ?(sample_1_in = 1) ?anonymizer filter =
    let filter_table =
      {
        table_name = "filter";
        entries =
          [ { matches = filter; actions = [ A_count "filter.matched"; A_pass ] } ];
        default = [ A_count "filter.dropped"; A_drop ];
      }
    in
    let sample_table =
      {
        table_name = "sample";
        entries =
          (if sample_1_in <= 1 then []
           else
             [
               {
                 matches = Packet.Filter.True;
                 actions = [ A_sample sample_1_in; A_count "sample.kept" ];
               };
             ]);
        default = [ A_pass ];
      }
    in
    let edit_actions =
      [ A_truncate truncation ]
      @ (match anonymizer with Some a -> [ A_anonymize a ] | None -> [])
      @ [ A_count "edit.emitted" ]
    in
    let edit_table =
      { table_name = "edit"; entries = []; default = edit_actions }
    in
    create [ filter_table; sample_table; edit_table ]
end
