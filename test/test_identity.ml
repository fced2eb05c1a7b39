(** Corpus-wide byte-identity of the shared-memory domain pool
    ([--jobs N --jobs-mode=domains]): output, source maps,
    [--line-directives] output and diagnostic order match [--jobs 1]
    exactly, clean or failing (the fault corpus included), with or
    without [--keep-going].

    Kept apart from [test_multicore] so the suite's group labels stay
    short and every case name prints in full on an 80-column report. *)

open Pool_fixture

(* ------------------------------------------------------------------ *)
(* Corpus-wide byte-identity                                           *)
(* ------------------------------------------------------------------ *)

let corpus_identity () =
  let files =
    List.concat_map (fun i -> [ macro_file i; meta_file i ]) [ 1; 2; 3; 4 ]
  in
  with_files files (fun files ->
      let c, out, _ = check_identity ~what:"mixed corpus" "" files in
      Alcotest.(check int) "clean corpus exits 0" 0 c;
      Alcotest.(check bool) "expansion really happened" true
        (contains ~sub:"x * 2 + x * 2" out || contains ~sub:"+" out))

let repo_corpus_identity () =
  (* every prelude-marked file of the golden corpus, in one run *)
  let dir = "corpus" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.filter_map (fun f ->
           let path = Filename.concat dir f in
           let text = read_file path in
           let first =
             match String.index_opt text '\n' with
             | Some i -> String.sub text 0 i
             | None -> text
           in
           (* non-hygienic prelude files expand under one flag set *)
           if contains ~sub:"ms2: prelude" first
              && not (contains ~sub:"hygienic" first)
           then Some path
           else None)
  in
  if List.length files < 2 then ()
  else
    ignore
      (check_identity ~what:"golden corpus" "--prelude --keep-going" files)

(* Source maps (and, with [flags], the output they map) from a domain
   pool match [--jobs 1] byte for byte. *)
let map_identity flags () =
  let files = [ macro_file 1; macro_file 2; meta_file 3 ] in
  with_files files (fun files ->
      let args = String.concat " " files in
      let map1 = Filename.temp_file "ms2c_mc_map1" ".json" in
      let mapn = Filename.temp_file "ms2c_mc_mapn" ".json" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun f -> try Sys.remove f with _ -> ()) [ map1; mapn ])
        (fun () ->
          let run jobs map =
            run_cli
              (Printf.sprintf
                 "expand --jobs %d --jobs-mode=domains %s --sourcemap %s %s"
                 jobs flags map args)
          in
          let c1, out1, _ = run 1 map1 in
          let cn, outn, _ = run 3 mapn in
          Alcotest.(check int) "sequential exit" 0 c1;
          Alcotest.(check int) "domains exit" 0 cn;
          Alcotest.(check string) "output identical" out1 outn;
          Alcotest.(check string) "source maps byte-identical"
            (read_file map1) (read_file mapn);
          if flags = "--line-directives" then
            Alcotest.(check bool) "line directives present" true
              (contains ~sub:"#line" out1)))

let fault_corpus_identity () =
  (* the whole fault corpus at the default watchdog deadline: every
     file fails or degrades in its own way, and the pool must report
     the same diagnostics in the same order (tight [--timeout-ms]
     values are avoided on purpose — wall-clock deadlines are racy
     under load and would flake independently of the pool) *)
  let dir = Filename.concat "corpus" "faults" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  let c, _, err = check_identity ~what:"fault corpus" "--keep-going" files in
  Alcotest.(check int) "degraded exits 3" 3 c;
  Alcotest.(check bool) "diagnostics reported" true (err <> "")

let () =
  Alcotest.run "identity"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "mixed corpus" `Quick corpus_identity;
          Alcotest.test_case "golden corpus (--prelude)" `Quick
            repo_corpus_identity;
          Alcotest.test_case "source maps" `Quick (map_identity "");
          Alcotest.test_case "source maps and --line-directives" `Quick
            (map_identity "--line-directives");
          Alcotest.test_case "fault corpus diagnostics" `Quick
            fault_corpus_identity;
        ] );
    ]
