(** CLI goldens for the parallel driver: [--jobs] exit codes (0 clean,
    3 degraded, 1 fatal, 124 usage), deterministic input-order
    diagnostics and output, the [--no-cache] ablation, the [--trace]
    fallback to the sequential pipeline, and the inert deprecated
    [--fragment-jobs] flag. *)

let ms2c =
  if Sys.file_exists "../bin/ms2c.exe" then "../bin/ms2c.exe"
  else "_build/default/bin/ms2c.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Run [ms2c args], returning (exit code, stdout, stderr). *)
let run_cli args =
  let out = Filename.temp_file "ms2c_jobs" ".out" in
  let err = Filename.temp_file "ms2c_jobs" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2> %s" ms2c args out err)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let write_fixture name text =
  let path = Filename.temp_file ("ms2c_jobs_" ^ name) ".mc" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  path

(* Self-contained files (each defines the macro it uses), so their
   expansions are identical whether files share a session ([--jobs 1])
   or are independent compilation units ([--jobs N]). *)
let good_file i =
  write_fixture
    (Printf.sprintf "good%d" i)
    (Printf.sprintf
       "syntax exp TWICE%d {| ( $$exp::e ) |} { return `($e + $e); }\n\
        int f%d(int x) { return TWICE%d(x * 3); }\n"
       i i i)

let bad_file i =
  write_fixture (Printf.sprintf "bad%d" i) (Printf.sprintf "int b%d( { ;\n" i)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let index_of ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

let with_files files k =
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> try Sys.remove f with _ -> ()) files)
    (fun () -> k files)

(* ------------------------------------------------------------------ *)
(* Clean runs                                                          *)
(* ------------------------------------------------------------------ *)

let clean_parallel_matches_sequential () =
  with_files [ good_file 1; good_file 2; good_file 3; good_file 4 ]
    (fun files ->
      let args = String.concat " " files in
      let c1, seq, e1 = run_cli (Printf.sprintf "expand --jobs 1 %s" args) in
      let c4, par, e4 = run_cli (Printf.sprintf "expand --jobs 4 %s" args) in
      Alcotest.(check int) "sequential exit 0" 0 c1;
      Alcotest.(check int) "parallel exit 0" 0 c4;
      Alcotest.(check string) "no sequential stderr" "" e1;
      Alcotest.(check string) "no parallel stderr" "" e4;
      Alcotest.(check string)
        "self-contained files expand identically in parallel" seq par;
      (* input order is preserved regardless of completion order *)
      let pos i = index_of ~sub:(Printf.sprintf "int f%d" i) par in
      List.iter
        (fun (a, b) ->
          match (pos a, pos b) with
          | Some pa, Some pb ->
              Alcotest.(check bool)
                (Printf.sprintf "f%d before f%d" a b)
                true (pa < pb)
          | _ -> Alcotest.fail "expected function missing from output")
        [ (1, 2); (2, 3); (3, 4) ])

let jobs_one_is_default_path () =
  with_files [ good_file 1; good_file 2 ] (fun files ->
      let args = String.concat " " files in
      let _, dflt, _ = run_cli (Printf.sprintf "expand %s" args) in
      let _, j1, _ = run_cli (Printf.sprintf "expand --jobs 1 %s" args) in
      Alcotest.(check string) "--jobs 1 is the sequential pipeline" dflt j1)

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)
(* ------------------------------------------------------------------ *)

let fatal_exit_1_no_output () =
  with_files [ good_file 1; bad_file 2; good_file 3; good_file 4 ]
    (fun files ->
      let args = String.concat " " files in
      let code, out, err = run_cli (Printf.sprintf "expand --jobs 4 %s" args) in
      Alcotest.(check int) "fatal exits 1" 1 code;
      Alcotest.(check string) "no output on fatal" "" out;
      Alcotest.(check bool) "diagnostic names the bad file" true
        (contains ~sub:"syntax error" err))

let keep_going_exit_3_salvages () =
  with_files [ good_file 1; bad_file 2; good_file 3; good_file 4 ]
    (fun files ->
      let args = String.concat " " files in
      let code, out, err =
        run_cli (Printf.sprintf "expand --jobs 4 --keep-going %s" args)
      in
      Alcotest.(check int) "degraded exits 3" 3 code;
      Alcotest.(check bool) "diagnostic reported" true
        (contains ~sub:"syntax error" err);
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "f%d survives" i)
            true
            (contains ~sub:(Printf.sprintf "int f%d" i) out))
        [ 1; 3; 4 ];
      Alcotest.(check bool) "failed file contributes nothing" false
        (contains ~sub:"int b2" out))

let diagnostics_in_input_order () =
  with_files [ bad_file 1; good_file 2; bad_file 3; bad_file 4 ]
    (fun files ->
      let args = String.concat " " files in
      let code, _, err =
        run_cli (Printf.sprintf "expand --jobs 4 --keep-going %s" args)
      in
      Alcotest.(check int) "degraded exits 3" 3 code;
      let pos i = index_of ~sub:(Printf.sprintf "int b%d" i) err in
      List.iter
        (fun (a, b) ->
          match (pos a, pos b) with
          | Some pa, Some pb ->
              Alcotest.(check bool)
                (Printf.sprintf "b%d's diagnostic precedes b%d's" a b)
                true (pa < pb)
          | _ -> Alcotest.fail "expected diagnostic missing from stderr")
        [ (1, 3); (3, 4) ])

let jobs_zero_resolves_auto () =
  with_files [ good_file 1; good_file 2 ] (fun files ->
      let args = String.concat " " files in
      let c1, seq, _ = run_cli (Printf.sprintf "expand --jobs 1 %s" args) in
      let c0, auto0, _ = run_cli (Printf.sprintf "expand --jobs 0 %s" args) in
      let ca, autoa, _ =
        run_cli (Printf.sprintf "expand --jobs auto %s" args)
      in
      Alcotest.(check int) "--jobs 1 exits 0" 0 c1;
      Alcotest.(check int) "--jobs 0 resolves and exits 0" 0 c0;
      Alcotest.(check int) "--jobs auto resolves and exits 0" 0 ca;
      Alcotest.(check string) "--jobs 0 output matches --jobs 1" seq auto0;
      Alcotest.(check string) "--jobs auto output matches --jobs 1" seq autoa)

let jobs_negative_usage_error () =
  with_files [ good_file 1 ] (fun files ->
      let code, _, _ =
        run_cli (Printf.sprintf "expand --jobs -1 %s" (List.hd files))
      in
      Alcotest.(check int) "--jobs -1 is a usage error" 124 code;
      let code', _, _ =
        run_cli
          (Printf.sprintf "expand --jobs-mode=threads %s" (List.hd files))
      in
      Alcotest.(check int) "unknown --jobs-mode is a usage error" 124 code')

let fork_mode_matches_domains () =
  with_files [ good_file 1; good_file 2; good_file 3 ] (fun files ->
      let args = String.concat " " files in
      let cd, dom, ed =
        run_cli (Printf.sprintf "expand --jobs 3 --jobs-mode=domains %s" args)
      in
      let cf, frk, ef =
        run_cli (Printf.sprintf "expand --jobs 3 --jobs-mode=fork %s" args)
      in
      Alcotest.(check int) "domains exit 0" 0 cd;
      Alcotest.(check int) "fork exit 0" 0 cf;
      Alcotest.(check string) "fork output = domains output" dom frk;
      Alcotest.(check string) "fork stderr = domains stderr" ed ef)

(* ------------------------------------------------------------------ *)
(* Ablation                                                            *)
(* ------------------------------------------------------------------ *)

let no_cache_byte_identical () =
  with_files [ good_file 1; good_file 2 ] (fun files ->
      let args = String.concat " " files in
      let c1, cached, _ = run_cli (Printf.sprintf "expand %s %s" args args) in
      let c2, uncached, _ =
        run_cli (Printf.sprintf "expand --no-cache %s %s" args args)
      in
      Alcotest.(check int) "cached exit" 0 c1;
      Alcotest.(check int) "uncached exit" 0 c2;
      Alcotest.(check string) "--no-cache is byte-identical" cached uncached)

let stats_report_cache_counters () =
  with_files [ good_file 1 ] (fun files ->
      let f = List.hd files in
      (* the same file twice through the shared session: the second
         fragment replays from the cache *)
      let code, _, err =
        run_cli (Printf.sprintf "expand --stats %s %s %s" f f f)
      in
      Alcotest.(check int) "clean exit" 0 code;
      Alcotest.(check bool) "stats mention cache hits" true
        (contains ~sub:"cache hits:" err);
      Alcotest.(check bool) "no hits under --no-cache" true
        (let _, _, err' =
           run_cli (Printf.sprintf "expand --stats --no-cache %s %s" f f)
         in
         contains ~sub:"cache hits: 0" err'))

(* ------------------------------------------------------------------ *)
(* Degrade and deprecated flags                                        *)
(* ------------------------------------------------------------------ *)

(* [--trace] keeps the shared-session sequential pipeline at any
   [--jobs]: a macro defined in the first file still expands in the
   second, which independent per-file engines cannot do. *)
let trace_falls_back_sequential () =
  let def =
    write_fixture "def"
      "syntax exp TWICE {| ( $$exp::e ) |} { return `($e + $e); }\n\
       int f(int x) { return TWICE(x * 3); }\n"
  in
  let use = write_fixture "use" "int g(int y) { return TWICE(y * 5); }\n" in
  with_files [ def; use ] (fun files ->
      let args = String.concat " " files in
      let c1, out1, err1 =
        run_cli (Printf.sprintf "expand --jobs 1 --trace %s" args)
      in
      let c2, out2, err2 =
        run_cli (Printf.sprintf "expand --jobs 2 --trace %s" args)
      in
      let cp, outp, _ = run_cli (Printf.sprintf "expand --jobs 2 %s" args) in
      Alcotest.(check int) "--jobs 1 --trace exit" 0 c1;
      Alcotest.(check int) "--jobs 2 --trace exit" 0 c2;
      Alcotest.(check int) "--jobs 2 exit" 0 cp;
      Alcotest.(check string) "trace output identical" out1 out2;
      Alcotest.(check string) "trace log identical" err1 err2;
      Alcotest.(check bool) "definition flowed into the second file" true
        (contains ~sub:"y * 5 + y * 5" out2);
      Alcotest.(check bool) "without --trace the files are independent"
        false
        (contains ~sub:"y * 5 + y * 5" outp))

(* [expand --fragment-jobs] is accepted for old scripts but selects
   nothing; [serve] no longer knows the flag. *)
let fragment_jobs_is_inert () =
  with_files [ good_file 1 ] (fun files ->
      let f = List.hd files in
      let c, plain, err = run_cli (Printf.sprintf "expand %s" f) in
      Alcotest.(check int) "plain exit" 0 c;
      Alcotest.(check string) "plain run is quiet" "" err;
      List.iter
        (fun n ->
          let cn, out, errn =
            run_cli (Printf.sprintf "expand --fragment-jobs %s %s" n f)
          in
          Alcotest.(check int) ("--fragment-jobs " ^ n ^ " exit") 0 cn;
          Alcotest.(check string)
            ("--fragment-jobs " ^ n ^ " output identical") plain out;
          Alcotest.(check string)
            ("--fragment-jobs " ^ n ^ " stderr is the warning alone")
            "ms2c: option '--fragment-jobs': deprecated and ignored; every \
             file expands sequentially\n"
            errn)
        [ "2"; "auto" ];
      let cs, _, _ = run_cli "serve --fragment-jobs 2 < /dev/null" in
      Alcotest.(check int) "serve --fragment-jobs is a usage error" 124 cs)

let () =
  Alcotest.run "jobs"
    [
      ( "parallel driver",
        [
          Alcotest.test_case "clean run, input order" `Quick
            clean_parallel_matches_sequential;
          Alcotest.test_case "--jobs 1 is sequential" `Quick
            jobs_one_is_default_path;
          Alcotest.test_case "fatal exits 1, no output" `Quick
            fatal_exit_1_no_output;
          Alcotest.test_case "--keep-going exits 3" `Quick
            keep_going_exit_3_salvages;
          Alcotest.test_case "diagnostics in input order" `Quick
            diagnostics_in_input_order;
          Alcotest.test_case "--jobs 0/auto resolves" `Quick
            jobs_zero_resolves_auto;
          Alcotest.test_case "--jobs -1 usage error" `Quick
            jobs_negative_usage_error;
          Alcotest.test_case "--jobs-mode=fork parity" `Quick
            fork_mode_matches_domains;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "--no-cache byte-identical" `Quick
            no_cache_byte_identical;
          Alcotest.test_case "cache counters in --stats" `Quick
            stats_report_cache_counters;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "--trace falls back sequential" `Quick
            trace_falls_back_sequential;
        ] );
      ( "deprecated",
        [
          Alcotest.test_case "--fragment-jobs is inert" `Quick
            fragment_jobs_is_inert;
        ] );
    ]
