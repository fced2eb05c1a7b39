(** Determinism and merged-telemetry properties of the shared-memory
    domain pool ([--jobs N --jobs-mode=domains], the default parallel
    mode); corpus-wide byte-identity lives in [test_identity]:

    - first-fatal semantics: without [--keep-going] a parallel run
      reports the {e first} fatal file in input order — the
      work-stealing pool must not report whichever fatal a worker
      happened to reach first;
    - chaos: armed failpoints (error and watchdog-timeout triggers)
      fire inside domain workers with the same diagnostics and exit
      codes as the sequential pipeline;
    - merged cache counters: engines on different domains share one
      cache store, so [--stats] reports merged hits, not per-worker
      zeros. *)

open Pool_fixture

(* ------------------------------------------------------------------ *)
(* Failure determinism                                                 *)
(* ------------------------------------------------------------------ *)

let first_fatal_in_input_order () =
  (* two fatal files; the pool must report the one that is first in
     input order even if a worker finishes the later one first, and
     must not leak output (exit 1 path) *)
  let files =
    [ macro_file 1; bad_file 2; macro_file 3; bad_file 4; macro_file 5 ]
  in
  with_files files (fun files ->
      let c, out, err = check_identity ~what:"fatal stop" "" files in
      Alcotest.(check int) "fatal exits 1" 1 c;
      Alcotest.(check string) "no output on fatal" "" out;
      Alcotest.(check bool) "first fatal file reported" true
        (contains ~sub:"int b2" err);
      Alcotest.(check bool) "later fatal not reached" false
        (contains ~sub:"int b4" err))

let keep_going_diag_order () =
  let files =
    [ bad_file 1; macro_file 2; bad_file 3; meta_file 4; bad_file 5 ]
  in
  with_files files (fun files ->
      let c, _, err =
        check_identity ~what:"keep-going sweep" "--keep-going" files
      in
      Alcotest.(check int) "degraded exits 3" 3 c;
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "b%d reported" i)
            true
            (contains ~sub:(Printf.sprintf "int b%d" i) err))
        [ 1; 3; 5 ])

(* ------------------------------------------------------------------ *)
(* Chaos inside domain workers                                         *)
(* ------------------------------------------------------------------ *)

let failpoint_error_in_domains () =
  (* [engine/fragment=error] fires identically for every file, so the
     armed-failpoint path (including its cache bypass) stays
     deterministic under the pool *)
  let files = [ macro_file 1; macro_file 2; macro_file 3 ] in
  with_files files (fun files ->
      let c, _, err =
        check_identity ~what:"failpoint chaos"
          "--failpoints engine/fragment=error --keep-going" files
      in
      Alcotest.(check int) "all files degraded" 3 c;
      Alcotest.(check bool) "failpoint diagnostic surfaced" true
        (contains ~sub:"failpoint" err))

let watchdog_timeout_in_domains () =
  (* a stalled interpreter step inside a domain worker must be cut by
     the per-engine watchdog, not hang the pool *)
  let files = [ meta_file 1; macro_file 2 ] in
  with_files files (fun files ->
      let args = String.concat " " files in
      let c, _, err =
        run_cli
          (Printf.sprintf
             "expand --jobs 2 --jobs-mode=domains --timeout-ms 400 \
              --failpoints interp/step=timeout --keep-going %s"
             args)
      in
      Alcotest.(check int) "watchdog degrades, not hangs" 3 c;
      Alcotest.(check bool) "timeout diagnostic surfaced" true
        (contains ~sub:"deadline exceeded" err))

(* ------------------------------------------------------------------ *)
(* Merged telemetry                                                    *)
(* ------------------------------------------------------------------ *)

let merged_cache_counters () =
  let f = macro_file 1 in
  with_files [ f ] (fun _ ->
      (* the same file four times across two domains: whichever engine
         expands it first feeds every other through the shared store *)
      let c, _, err =
        run_cli
          (Printf.sprintf
             "expand --jobs 2 --jobs-mode=domains --stats %s %s %s %s" f f f
             f)
      in
      Alcotest.(check int) "clean exit" 0 c;
      Alcotest.(check bool) "stats name the pool mode" true
        (contains ~sub:"jobs: 2 (domains)" err);
      let hits =
        (* first "cache hits: N" line of the text stats *)
        let rec find i =
          match String.index_from_opt err i 'c' with
          | None -> 0
          | Some j ->
              let tag = "cache hits: " in
              if
                j + String.length tag <= String.length err
                && String.sub err j (String.length tag) = tag
              then
                int_of_string
                  (String.sub err
                     (j + String.length tag)
                     (String.index_from err (j + String.length tag) '\n'
                     - j - String.length tag))
              else find (j + 1)
        in
        find 0
      in
      Alcotest.(check bool) "merged hit counter is non-zero" true (hits > 0))

let jobs_meta_in_metrics () =
  let files = [ macro_file 1; macro_file 2 ] in
  with_files files (fun files ->
      let args = String.concat " " files in
      let metrics = Filename.temp_file "ms2c_mc_metrics" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove metrics with _ -> ())
        (fun () ->
          let c, _, _ =
            run_cli
              (Printf.sprintf
                 "expand --jobs 2 --jobs-mode=domains --metrics %s -o \
                  /dev/null %s"
                 metrics args)
          in
          Alcotest.(check int) "clean exit" 0 c;
          let m = read_file metrics in
          Alcotest.(check bool) "resolved job count recorded" true
            (contains ~sub:"\"driver.jobs\": 2" m);
          Alcotest.(check bool) "pool mode recorded" true
            (contains ~sub:"\"driver.jobs_mode.domains\": 1" m)))

let () =
  Alcotest.run "multicore"
    [
      ( "failure determinism",
        [
          Alcotest.test_case "first fatal in input order" `Quick
            first_fatal_in_input_order;
          Alcotest.test_case "--keep-going diagnostic order" `Quick
            keep_going_diag_order;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "failpoint error in workers" `Quick
            failpoint_error_in_domains;
          Alcotest.test_case "watchdog timeout in workers" `Quick
            watchdog_timeout_in_domains;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "merged cache counters" `Quick
            merged_cache_counters;
          Alcotest.test_case "jobs metadata in --metrics" `Quick
            jobs_meta_in_metrics;
        ] );
    ]
