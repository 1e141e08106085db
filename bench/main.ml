(* The paper-reproduction bench harness: one target per table/figure.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig6 table1 ...

   Performance is measured by perfbench/, not here. *)

let experiments =
  [
    ("fig2", Fig_infra.fig2);
    ("fig3", Fig_infra.fig3);
    ("fig4", Fig_infra.fig4);
    ("fig5", Fig_infra.fig5);
    ("fig6", Fig_util.fig6);
    ("fig10", fun () -> ignore (Fig_behavior.fig10 ()));
    ("fig11", Fig_profile.fig11);
    ("fig12", Fig_profile.fig12);
    ("fig13", Fig_profile.fig13);
    ("fig15", Fig_profile.fig15);
    ("flows", Fig_profile.section_8_2_flows);
    ("profile", Fig_profile.summary);
    ("table1", Fig_storage.table1);
    ("table2", Fig_storage.table2);
    ("tcpdump", Fig_storage.tcpdump_bound);
    ("fig14", Fig_storage.fig14);
    ("bottleneck", Fig_storage.bottleneck_eta);
    ("ablation", Ablation.run);
    ("figures", Fig_svg.run);
    ("netflow", Netflow_cmp.run);
    ("lessons", Lessons.run);
  ]

let usage () =
  print_endline "usage: main.exe [experiment ...]";
  print_endline "experiments:";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) experiments

let () =
  match Array.to_list Sys.argv with
  | _ :: ([ "-h" ] | [ "--help" ]) -> usage ()
  | [ _ ] ->
    (* Run the complete harness. *)
    List.iter (fun (_, f) -> f ()) experiments
  | _ :: names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Printf.printf "unknown experiment %S\n" name;
          usage ();
          exit 1)
      names
  | [] -> usage ()
