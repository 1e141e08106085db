(* A P4-style match-action pipeline: the FPGA offload's oracle.

   Patchwork's FPGA offload is a P4 program compiled onto the Alveo
   NIC.  This module is the abstraction that program is written in: a
   straight-line pipeline of match-action tables.  Each table matches on
   header fields and executes the first matching entry's action list.
   The actions cover what Patchwork offloads: dropping, truncation,
   systematic sampling, address rewriting and counting.

   An entry matches with the user-facing [Packet.Filter] language and
   its one evaluator, [Packet.Filter.matches], so [Compile.of_filter]
   puts the user's capture filter into a table unchanged, as Patchwork
   generates its P4 tables from the user's capture configuration.

   The capture does not run this program.  It applies the user's filter
   to every capture method alike, so the program it would compile for
   the offload has filter [True]: it forwards the 0th, Nth, 2Nth, ...
   frame it is shown, [min wire truncation] bytes of each.  One counter
   gives that verdict ([Hostmodel.Fpga_path.create]), and
   [Oracle.materialize_per_frame] runs this program on every frame so
   that the property "class route matches the per-frame oracle" holds
   the counter to it. *)

type action =
  | A_pass  (* continue to the next table *)
  | A_drop  (* stop; the frame is discarded *)
  | A_accept  (* stop; the frame bypasses the remaining tables *)
  | A_truncate of int  (* cap the bytes forwarded to the host *)
  | A_sample of int  (* keep every Nth frame reaching this action *)
  | A_anonymize of Hostmodel.Anonymize.t  (* rewrite IP addresses *)
  | A_count of string  (* bump a named counter *)

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

type verdict = {
  frame : Packet.Frame.t option;  (* [None] when dropped or unsampled *)
  forwarded_bytes : int;  (* bytes handed to the host (post-truncation) *)
}

let bump t name =
  Hashtbl.replace t.counters name
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let sampler_hit t key n =
  let seen = Option.value ~default:0 (Hashtbl.find_opt t.samplers key) in
  Hashtbl.replace t.samplers key (seen + 1);
  seen mod n = 0

type outcome = Continue | Stop_drop | Stop_accept

(* Run a frame through every table in order. *)
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
          frame := Hostmodel.Anonymize.frame anon !frame;
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

(* A named counter's value (0 if never bumped). *)
let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)

let stage_count t = List.length t.tables

module Compile = struct
  (* Patchwork's offload generator: a filter table (drop frames the
     filter does not match, with counters for both outcomes), then a
     sampling table, then an editing table (truncate and optionally
     anonymize). *)
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
