(* The capture path: the weekly output pinned across commits, the flow
   class route against the per-frame oracle, and its fast-path
   counters. *)

module Config = Patchwork.Config
module Capture = Patchwork.Capture
module Flow_model = Traffic.Flow_model

let parse_filter s =
  match Packet.Filter.parse s with Ok f -> f | Error m -> failwith (s ^ ": " ^ m)

(* --- Weekly output pinned across commits --- *)

(* One 1-week x 0.25 h occasion per capture configuration, digested per
   sample (every record's acap line and flow key, then its pcap bytes)
   and through the profile's CSVs.  The expected digests were recorded
   by running this same body on the commit before flow classes, so a
   refactor of the capture path that moves one byte of the weekly
   output fails here.  Four [flows.csv] digests were re-recorded once,
   when the profile began weighting each sample's exact counts once:
   each file holds the same rows, and byte-tied flows now order by key,
   as the flow-store query orders them.  Sixteen [emit_pcap] per-sample
   digests were re-recorded when the capture began writing each pcap
   in time order: the same records and frames, the frames now in the
   records' order.  The digests assume glibc's libm: synthesis calls
   [exp], [log] and [cos], and another libm may round differently. *)

let golden_configs =
  let base =
    {
      Config.default with
      Config.samples_per_run = 4;
      max_frames_per_sample = 500;
      pool_size = 1;
    }
  in
  [
    ("default", base);
    ("anonymize", { base with Config.anonymize = true });
    ("filter", { base with Config.filter = parse_filter "less 1000 or udp" });
    ("emit_pcap", { base with Config.emit_pcap = true });
    ( "fpga",
      {
        base with
        Config.capture_method = Config.Fpga_dpdk { cores = 2; sample_1_in = 2 };
      } );
  ]

let md5_hex s = Digest.to_hex (Digest.string s)

let sample_digest (s : Capture.sample) =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b (Dissect.Acap.to_line r);
      Buffer.add_char b '\t';
      Buffer.add_string b (Option.value ~default:"-" (Dissect.Acap.flow_key r));
      Buffer.add_char b '\n')
    s.Capture.acaps;
  Option.iter (Buffer.add_bytes b) s.Capture.pcap;
  md5_hex (Buffer.contents b)

type digests = { samples : string list; csvs : (string * string) list }

let golden_occasion config =
  let start_time = 30.0 *. Netcore.Timebase.day in
  let engine = Simcore.Engine.create ~start_time () in
  let fabric = Testbed.Fablib.create ~seed:2024 engine in
  let driver = Traffic.Driver.create fabric ~seed:7 in
  Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ~start_time
    ~duration:(0.25 *. Netcore.Timebase.hour) ()

let weekly_digests config =
  let report = golden_occasion config in
  let samples = List.map sample_digest (Patchwork.Coordinator.all_samples report) in
  let b = Analysis.Profile.Builder.create () in
  Analysis.Profile.Builder.add_report b report;
  let profile = Analysis.Profile.Builder.finish b in
  let dir = Filename.temp_dir "patchwork_golden" "" in
  let csvs =
    List.map
      (fun name ->
        let path = Filename.concat dir name in
        let d = md5_hex (In_channel.with_open_bin path In_channel.input_all) in
        Sys.remove path;
        (name, d))
      (Analysis.Profile.write_csv_files profile ~dir)
  in
  Sys.rmdir dir;
  { samples; csvs }

let expected =
  [
    ( "default",
      {
        samples =
          [
            "62635ea52eec8e514461f8ddadbb3c99"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "c49757685812eddc084f8d3da0fc7c2b";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "3d49893e9da7f5e2a7dc8bae38462651";
            "28bb43a80c147e178c2bac69ef494ba4"; "c732c07c1580a801e1a60b767478ee8d";
            "a5a22b402b5feeccce17348b3e208c5e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "2dfafde9be979e347ac9d2b476486cc6";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "120312b163401bbd91c0ca3ab1f1b063";
            "d41d8cd98f00b204e9800998ecf8427e"; "cd58f9275d22d7a87992c03cbcea49fa";
            "7092951fd0037e1f7ead43b379528f75"; "00c9d073398c7c70fded79d7ae93f195";
            "d41d8cd98f00b204e9800998ecf8427e"; "9cadf7f1e4a05448d889d35497bd6e85";
            "d41d8cd98f00b204e9800998ecf8427e"; "8f658e19f0c004f55f4376f5fad647a0";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "e3fc940d8e1f82f980bed2ec24c3f0db";
            "2afff198184aef31c0a4a0319e02dd65"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "6c1b225439a0025b4f274c0858619ed3";
            "968e39a8ea25f461d1f9995d6325f9f6"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "23e80361c1747a2027846ad143560025"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
          ];
        csvs =
          [
            ("header_occurrence.csv", "fedd9657b5f51da9a151e57fcb26fe3d");
            ("site_headers.csv", "f647def0de9159a420681bfbc03585e8");
            ("frame_sizes.csv", "0da2667c6cf4eea1ac6f49423ebaaa35");
            ("flows_per_sample.csv", "64335b8d4ae2018b210c9fbbd4cd7e4d");
            ("flows.csv", "62634533a1a24b78e868dc97d6391b35");
          ];
      } );
    ( "anonymize",
      {
        samples =
          [
            "3b8e53a24ff12e5eb898d54b9549f289"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "ae5369ee829971f294bb35254c322caa";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "f94cc8438e1f94eaa86964da805625d1";
            "58b59ea22832d49511b5bcdc84838fe2"; "522d998c82efe90822128aaa8b45ae75";
            "882e849f62ab5f9bae445ac8756e0e94"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "dae667b230e9bf7a4e1afb36faf82573";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "8f989ff9d9add43f1cc763f659a89ffa";
            "d41d8cd98f00b204e9800998ecf8427e"; "9a1a2f286ccfbe1fa8ab4869c9c1e83a";
            "a41c7d02869c6d3400670b8f35e3e4fc"; "dc5bc7ee51625721a1c1b6d1a0c43e3d";
            "d41d8cd98f00b204e9800998ecf8427e"; "1a13484cd5dd3eeab471014616732c0a";
            "d41d8cd98f00b204e9800998ecf8427e"; "953a01f712644dc2be91644ffcd43300";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "6ea0c8143fbc623b06871deb7040d19d";
            "0fb3a6d46fddf6c3e8bbe75ff8218e44"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "e9a00338e4e27efea02213d43ffb5db8";
            "8f314ceda5672223802a89b2f4f034cc"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "2f12f4d6d16e6afc1c7c4902be9402ae"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
          ];
        csvs =
          [
            ("header_occurrence.csv", "fedd9657b5f51da9a151e57fcb26fe3d");
            ("site_headers.csv", "f647def0de9159a420681bfbc03585e8");
            ("frame_sizes.csv", "0da2667c6cf4eea1ac6f49423ebaaa35");
            ("flows_per_sample.csv", "64335b8d4ae2018b210c9fbbd4cd7e4d");
            ("flows.csv", "c0f4debc3b1b30874902e1a4b32fcae4");
          ];
      } );
    ( "filter",
      {
        samples =
          [
            "036cd89a937951d3b3876c1530fc802c"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "c49757685812eddc084f8d3da0fc7c2b";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "3d49893e9da7f5e2a7dc8bae38462651";
            "cc9bf34184ef90c1b0e57dee329206aa"; "3ae9f6b6d31c29ed0ed714535b5f78ba";
            "a5a22b402b5feeccce17348b3e208c5e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "ec771e30c0d4fba5e50c5a4c8dd0af68";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "bf5f26abc06d663038dd0a20c3e937fc";
            "d41d8cd98f00b204e9800998ecf8427e"; "ccd871c377038b7cb33d2cb105d15e2f";
            "25ac0f7fd278e0efb2fe9e3276b12b6c"; "6c012e6b46c17c81d185616c753d24d2";
            "d41d8cd98f00b204e9800998ecf8427e"; "097f89af16f384cd7fc76152cd510720";
            "d41d8cd98f00b204e9800998ecf8427e"; "8f658e19f0c004f55f4376f5fad647a0";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "ffbc4609a2e6ed433b440366e022d5e4";
            "6b8e24300e6a09b5c64494e779c8be12"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "faf0675042269d34348f9bb103a35a1a";
            "fb67678e53e7f2d1051fd1b20126a29a"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "6e913b60ec49a68cfd34729e75646483"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
          ];
        csvs =
          [
            ("header_occurrence.csv", "1146a59d331946570e659b2c644ad175");
            ("site_headers.csv", "8652e15ec80556129dc48b7e35f69db7");
            ("frame_sizes.csv", "b86ca070f7c8464e13eceaddf84df04b");
            ("flows_per_sample.csv", "64335b8d4ae2018b210c9fbbd4cd7e4d");
            ("flows.csv", "ea3104034f0b400c4fe61b64e8fc67a6");
          ];
      } );
    ( "emit_pcap",
      {
        samples =
          [
            "3897dac409bb9cdae2c2f8336cf3daef"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "2788f56114e787be1fb597ba7eb1d2c5";
            "3f3e6e3d4491e101ea339bee9340b41e"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "f5014704635c17d77275d0cf12cb0264";
            "5c6a59b8e0839415dec9b0081b1a0c51"; "bc775d3fee9d6099fef11588eb9eb6fb";
            "36c10ac5b48dc0961c40594de0fb2f77"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "6e03b99d6955b69bde9a57f1146fdd94";
            "3f3e6e3d4491e101ea339bee9340b41e"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "5fa8cce19177fa6155cc7ff531135556";
            "3f3e6e3d4491e101ea339bee9340b41e"; "804e5f642c78784483758bc637ca2647";
            "6553ecda947148395954e6ecfc91fe30"; "f667549231fd94085dbbe5d39f3bd75b";
            "3f3e6e3d4491e101ea339bee9340b41e"; "57ca4c0f366110a5123d37ef35a110b7";
            "3f3e6e3d4491e101ea339bee9340b41e"; "599a89e23f805aa035ca325375294e32";
            "3f3e6e3d4491e101ea339bee9340b41e"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "9fe28998154b01bd486bd7eee0c0dc2f";
            "73acde80bfa455eccd7ba7244c26a4fa"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "aead8c49719551ceb0b3b48dd680ca29";
            "24f85b53fc7a113b207fccc76456cafd"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "3f3e6e3d4491e101ea339bee9340b41e";
            "818bb3b49237e11891d06ba4f7be5981"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "3f3e6e3d4491e101ea339bee9340b41e";
            "3f3e6e3d4491e101ea339bee9340b41e"; "3f3e6e3d4491e101ea339bee9340b41e";
          ];
        csvs =
          [
            ("header_occurrence.csv", "fedd9657b5f51da9a151e57fcb26fe3d");
            ("site_headers.csv", "f647def0de9159a420681bfbc03585e8");
            ("frame_sizes.csv", "0da2667c6cf4eea1ac6f49423ebaaa35");
            ("flows_per_sample.csv", "64335b8d4ae2018b210c9fbbd4cd7e4d");
            ("flows.csv", "62634533a1a24b78e868dc97d6391b35");
          ];
      } );
    ( "fpga",
      {
        samples =
          [
            "af1305381cdea7fcbf186e96cb5fe126"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "ab07b382addd756c50c85fdad1727cfd";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "271e15194ea96426c09bf7367479e0a0";
            "6bb40c0b57c5d745eb4c9798d94092ff"; "db021d43dd77633c257d208622ea64ec";
            "21811001ccbe50a0f9786ff803efe516"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "9a773790304246317b5f1c88d0fae975";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "70839bc209360117200fa3f1797efae5";
            "d41d8cd98f00b204e9800998ecf8427e"; "6d1fc2e8faba2e5f1588d67a3a3d2cd5";
            "fa7cd62c5edc266ad34605d7b2b9ee4d"; "3ae5acc6cbfb9871f8af09273a289c42";
            "d41d8cd98f00b204e9800998ecf8427e"; "d1578c612af25c71996e31b5287a7fb4";
            "d41d8cd98f00b204e9800998ecf8427e"; "fdba4b3464fa2c4846b049cf12ca670d";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "c26abc2ee4f0aff731676a98bab1c521";
            "7d582dcc7df5e3e7757a5daa0f6f7c8e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "411176a984195da1968f986779ea7913";
            "c058b066600b552b2451f06fdcf76657"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "e1c48889631d9c629ed20b0a163e1ef2"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
            "d41d8cd98f00b204e9800998ecf8427e"; "d41d8cd98f00b204e9800998ecf8427e";
          ];
        csvs =
          [
            ("header_occurrence.csv", "dfdab619e17f2b2583d738d5d943f62c");
            ("site_headers.csv", "dde6c00ec678fa0387edd2549fdcc0cd");
            ("frame_sizes.csv", "6576685ec43237d465527c1e718c9902");
            ("flows_per_sample.csv", "64335b8d4ae2018b210c9fbbd4cd7e4d");
            ("flows.csv", "7910f173fd6aff9b94d5daacef404dad");
          ];
      } );
  ]

let test_weekly_golden () =
  List.iter
    (fun (name, config) ->
      let want = List.assoc name expected in
      let got = weekly_digests config in
      Alcotest.(check (list string)) (name ^ ": per-sample digests") want.samples
        got.samples;
      Alcotest.(check (list (pair string string)))
        (name ^ ": profile CSV digests") want.csvs got.csvs)
    golden_configs

(* --- Flow classes against the per-frame oracle --- *)

module H = Packet.Headers

(* A random template of the kinds the driver builds: IPv4 or IPv6,
   PseudoWire, VXLAN overlays, reversed ACK streams and RST segments,
   each an aggregate of 1 or of 50 and more subflows. *)
let random_spec rng ~flow_id =
  let module R = Netcore.Rng in
  let service = R.choice rng Dissect.Services.catalog in
  let params =
    {
      Traffic.Stack_builder.vlan_id = 100 + R.int rng 3900;
      mpls_labels = List.init (R.int rng 3) (fun _ -> 16 + R.int rng 1_000_000);
      use_pseudowire = R.bernoulli rng 0.3;
      use_vxlan = R.bernoulli rng 0.3;
      use_ipv6 = R.bernoulli rng 0.3;
      service;
    }
  in
  let template = Traffic.Stack_builder.forward rng params in
  let template =
    if service.Dissect.Services.l4 = Dissect.Services.Tcp && R.bool rng then
      Traffic.Stack_builder.reverse template
    else template
  in
  let template =
    if R.bernoulli rng 0.2 then
      List.map
        (function
          | H.Tcp tcp -> H.Tcp { tcp with H.flags = { H.flags_none with H.rst = true } }
          | h -> h)
        template
    else template
  in
  let frame_size =
    if R.bool rng then Netcore.Dist.Constant (float_of_int (40 + R.int rng 9600))
    else
      (* Bins below the smallest stack and above the jumbo MTU exercise
         both clamps; zero weights are legal as long as one is not. *)
      Netcore.Dist.Empirical
        [|
          (float_of_int (R.int rng 3), 40.0);
          (float_of_int (R.int rng 3), 600.0);
          (1.0, 1500.0);
          (float_of_int (R.int rng 2), 9500.0);
        |]
  in
  let subflows = if R.bool rng then 1 else 50 + R.int rng 200 in
  Flow_model.make ~flow_id ~template ~frame_size ~avg_frame_size:800.0
    ~byte_rate:(float_of_int (R.int rng 120_000))
    ~start_time:(R.float rng) ~duration:(1.0 +. (4.0 *. R.float rng)) ~subflows ()

let inner_ipv4 (spec : Flow_model.spec) =
  List.fold_left
    (fun acc h -> match h with H.Ipv4 ip -> Some ip | _ -> acc)
    None spec.Flow_model.template

let inner_ports (spec : Flow_model.spec) =
  List.fold_left
    (fun acc h ->
      match h with
      | H.Tcp { src_port; dst_port; _ } | H.Udp { src_port; dst_port } ->
        Some (src_port, dst_port)
      | _ -> acc)
    None spec.Flow_model.template

let static_filters =
  [
    ""; "tcp"; "udp"; "ip"; "ip6"; "vlan"; "mpls"; "pw"; "vxlan"; "tls"; "dns";
    "less 1000"; "greater 1500"; "less 64"; "greater 9000"; "not tcp";
    "tcp and less 900"; "udp or greater 4000"; "not (vlan and less 300)";
    "vlan and not mpls"; "(tcp or ip6) and greater 700";
  ]

(* Filters that name the first spec's own tags, hosts and ports, so host
   and port clauses match some classes and not others. *)
let spec_filters spec =
  let ip =
    match inner_ipv4 spec with
    | None -> []
    | Some ip ->
      let a = Netcore.Ipv4_addr.to_string in
      [
        "host " ^ a ip.H.dst; "src host " ^ a ip.H.src;
        "dst host " ^ a ip.H.dst ^ " and less 1200";
      ]
  in
  let ports =
    match inner_ports spec with
    | None -> []
    | Some (src, dst) ->
      [
        Printf.sprintf "port %d" dst; Printf.sprintf "src port %d" src;
        Printf.sprintf "not dst port %d or greater 2000" dst;
      ]
  in
  let vlan =
    List.filter_map
      (function H.Vlan { vid; _ } -> Some (Printf.sprintf "vlan %d" vid) | _ -> None)
      spec.Flow_model.template
  in
  ip @ ports @ vlan

(* One case: specs, capture configuration, materialized fraction and
   window, all from one seed, crossed with the configuration flags
   QCheck picks. *)
let case_setup (seed, filter_pick, (anonymize, emit_pcap, fpga)) =
  let rng = Netcore.Rng.create seed in
  let specs =
    List.init (1 + Netcore.Rng.int rng 4) (fun i -> random_spec rng ~flow_id:(seed + i))
  in
  let filters = static_filters @ spec_filters (List.hd specs) in
  let filter = parse_filter (List.nth filters (filter_pick mod List.length filters)) in
  let truncation = Netcore.Rng.choice rng [| 96; 200; 1500; 65535 |] in
  let capture_method =
    if not fpga then Config.Tcpdump
    else Config.Fpga_dpdk { cores = 2; sample_1_in = 1 + Netcore.Rng.int rng 3 }
  in
  let config =
    { Config.default with Config.filter; anonymize; emit_pcap; truncation; capture_method }
  in
  let fraction = if Netcore.Rng.bool rng then 1.0 else 0.1 +. Netcore.Rng.float rng in
  let start_time = Netcore.Rng.float rng in
  let end_time = 1.0 +. (2.0 *. Netcore.Rng.float rng) in
  (specs, config, fraction, start_time, end_time)

let run_case ((seed, _, _) as case) =
  let specs, config, fraction, start_time, end_time = case_setup case in
  let class_rng = Netcore.Rng.create (seed * 7)
  and frame_rng = Netcore.Rng.create (seed * 7) in
  let m =
    Capture.materialize ~config ~rng:class_rng ~fraction ~start_time ~end_time specs
  in
  let records, pcap =
    Oracle.materialize_per_frame ~config ~rng:frame_rng ~fraction ~start_time ~end_time
      specs
  in
  m.Capture.records = records
  && m.Capture.pcap = pcap
  && Netcore.Rng.bits64 class_rng = Netcore.Rng.bits64 frame_rng

let prop_classes_match_oracle =
  QCheck.Test.make ~name:"class route matches the per-frame oracle" ~count:300
    QCheck.(
      triple (int_range 1 1_000_000) (int_range 0 1000) (triple bool bool bool))
    run_case

(* The same cases with [emit_pcap], at the default truncation: the pcap
   holds the records' frames in the records' order, so its timestamps
   never decrease and its digest reads back each in-line record in
   every field but the stamp (time rounded to the microsecond, captured
   length, truncation). *)
let pcap_case (seed, filter_pick, (anonymize, fpga)) =
  let specs, config, fraction, start_time, end_time =
    case_setup (seed, filter_pick, (anonymize, true, fpga))
  in
  let config = { config with Config.truncation = Config.default.Config.truncation } in
  let m =
    Capture.materialize ~config ~rng:(Netcore.Rng.create (seed * 7)) ~fraction
      ~start_time ~end_time specs
  in
  let pcap = Option.get m.Capture.pcap in
  let rec ordered = function
    | (a : Oracle.entry) :: (b :: _ as rest) -> a.Oracle.ts <= b.Oracle.ts && ordered rest
    | _ -> true
  in
  ordered (Oracle.index pcap)
  && List.map Test_dissect.unstamped (Analysis.Digest.pcap_to_acaps pcap)
     = List.map Test_dissect.unstamped m.Capture.records

let prop_pcap_in_record_order =
  QCheck.Test.make ~name:"pcap holds the records' frames in their order" ~count:200
    QCheck.(triple (int_range 1 1_000_000) (int_range 0 1000) (pair bool bool))
    pcap_case

(* Forced ties: 1-4 specs at 1e17 frames/s over a 1e-15 s window at
   t = 1.0, so each spec's ~100 draws fall on a handful of representable
   times, and equal times abound within a spec and across specs.  The
   records must come in the oracle's order, which is [List.sort]'s:
   equal times latest-generated first.  Returns whether they do, and
   the number of adjacent equal-time pairs. *)
let tie_case seed =
  let rng = Netcore.Rng.create seed in
  let specs =
    List.init (1 + Netcore.Rng.int rng 4) (fun i ->
        let spec = random_spec rng ~flow_id:(seed + i) in
        { spec with Flow_model.byte_rate = 1e17 *. spec.Flow_model.avg_frame_size })
  in
  let start_time = 1.0 and end_time = 1.0 +. 1e-15 in
  let m =
    Capture.materialize ~config:Config.default ~rng:(Netcore.Rng.create (seed * 7))
      ~fraction:1.0 ~start_time ~end_time specs
  in
  let records, _ =
    Oracle.materialize_per_frame ~config:Config.default
      ~rng:(Netcore.Rng.create (seed * 7))
      ~fraction:1.0 ~start_time ~end_time specs
  in
  let rec ties n = function
    | (a : Dissect.Acap.record) :: (b :: _ as rest) ->
      ties (if a.Dissect.Acap.ts = b.Dissect.Acap.ts then n + 1 else n) rest
    | _ -> n
  in
  (m.Capture.records = records, ties 0 records)

let test_ties_match_oracle () =
  let results = List.init 300 (fun i -> tie_case (i + 1)) in
  let failed = List.length (List.filter (fun (ok, _) -> not ok) results) in
  let pairs = List.fold_left (fun acc (_, n) -> acc + n) 0 results in
  Printf.printf "forced ties: %d adjacent equal-time pairs over 300 seeds\n" pairs;
  Alcotest.(check bool) "the seeds force ties" true (pairs >= 10_000);
  Alcotest.(check int) "seeds whose records differ from the oracle's" 0 failed

(* The generator must reach every template kind the property claims to
   cross, with single flows and swarms. *)
let test_oracle_cases_cover () =
  let specs =
    List.concat_map
      (fun seed ->
        let rng = Netcore.Rng.create seed in
        List.init (1 + Netcore.Rng.int rng 4) (fun i ->
            random_spec rng ~flow_id:(seed + i)))
      (List.init 300 (fun i -> i + 1))
  in
  let has tok (s : Flow_model.spec) =
    List.mem tok (List.map H.name s.Flow_model.template)
  in
  List.iter
    (fun (what, pred) ->
      Alcotest.(check bool) what true (List.exists pred specs))
    [
      ("ipv4", has "ipv4"); ("ipv6", has "ipv6"); ("pseudowire", has "pw");
      ("vxlan", has "vxlan");
      ( "reverse ack stream",
        fun s ->
          List.exists
            (function H.Tcp { flags; _ } -> flags = H.flags_ack | _ -> false)
            s.Flow_model.template );
      ("one subflow", fun s -> s.Flow_model.subflows = 1);
      ("50+ subflows", fun s -> s.Flow_model.subflows >= 50);
    ]

(* --- Fast-path counters --- *)

let counter name =
  match Obs.Registry.value Obs.Registry.default name with
  | Some (Obs.Registry.Counter v) -> v
  | _ -> 0.0

(* The capture counts every record it keeps, and abstracts fewer flow
   classes than records, with or without pcap and with FPGA offload. *)
let test_records_and_classes_counters () =
  let names = [ "capture_records_total"; "capture_classes_total" ] in
  let run config =
    let start_time = 30.0 *. Netcore.Timebase.day in
    let engine = Simcore.Engine.create ~start_time () in
    let fabric = Testbed.Fablib.create ~seed:2024 engine in
    let driver = Traffic.Driver.create fabric ~seed:7 in
    let before = List.map counter names in
    let report =
      Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ~start_time
        ~duration:(0.25 *. Netcore.Timebase.hour) ()
    in
    let records =
      List.fold_left
        (fun acc (s : Capture.sample) -> acc + List.length s.Capture.acaps)
        0 (Patchwork.Coordinator.all_samples report)
    in
    match List.map2 (fun n b -> int_of_float (counter n -. b)) names before with
    | [ r; c ] -> (records, r, c)
    | _ -> assert false
  in
  let base =
    { Config.default with Config.samples_per_run = 2; max_frames_per_sample = 300 }
  in
  let records, r, c = run base in
  Alcotest.(check bool) "default sample has records" true (records > 0);
  Alcotest.(check int) "records counted" records r;
  Alcotest.(check bool) "fewer classes than records" true (c > 0 && c < records);
  let records, r, _ = run { base with Config.emit_pcap = true } in
  Alcotest.(check int) "records counted (pcap)" records r;
  let fpga = Config.Fpga_dpdk { cores = 2; sample_1_in = 2 } in
  let records, r, _ = run { base with Config.capture_method = fpga } in
  Alcotest.(check bool) "FPGA sample has records" true (records > 0);
  Alcotest.(check int) "records counted (FPGA)" records r

let suites =
  [
    ( "capture.classes",
      [
        Alcotest.test_case "weekly output pinned" `Quick test_weekly_golden;
        QCheck_alcotest.to_alcotest prop_classes_match_oracle;
        QCheck_alcotest.to_alcotest prop_pcap_in_record_order;
        Alcotest.test_case "class route matches the oracle under ties" `Quick
          test_ties_match_oracle;
        Alcotest.test_case "oracle cases cover the crossing" `Quick test_oracle_cases_cover;
        Alcotest.test_case "class and record counters" `Quick
          test_records_and_classes_counters;
      ] );
  ]
