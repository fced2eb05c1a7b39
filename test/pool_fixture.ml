(** Shared fixtures of the domain-pool suites ([test_multicore],
    [test_identity]): a CLI runner, throwaway input files and the
    [--jobs 1] versus domain-pool identity check. *)

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
  let out = Filename.temp_file "ms2c_mc" ".out" in
  let err = Filename.temp_file "ms2c_mc" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2> %s" ms2c args out err)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let write_fixture name text =
  let path = Filename.temp_file ("ms2c_mc_" ^ name) ".mc" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  path

let with_files files k =
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with _ -> ()) files)
    (fun () -> k files)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Self-contained files exercising distinct pipeline layers: plain
   macros, meta functions with interpreter work, generated macros. *)
let macro_file i =
  write_fixture
    (Printf.sprintf "m%d" i)
    (Printf.sprintf
       "syntax exp DBL%d {| ( $$exp::e ) |} { return `($e + $e); }\n\
        int f%d(int x) { return DBL%d(x * %d); }\n"
       i i i (i + 1))

let meta_file i =
  write_fixture
    (Printf.sprintf "t%d" i)
    (Printf.sprintf
       "@exp dbl%d(@exp e) { return `($e + $e); }\n\
        syntax exp MID%d {| ( $$exp::e ) |} { return dbl%d(e); }\n\
        int g%d(int y) { return MID%d(y - %d); }\n"
       i i i i i (i + 1))

let bad_file i =
  write_fixture (Printf.sprintf "bad%d" i) (Printf.sprintf "int b%d( { ;\n" i)

(* Run the same invocation at --jobs 1 and on a domain pool, asserting
   exit code, stdout and stderr are byte-identical; returns the
   sequential triple for additional checks. *)
let check_identity ?(jobs = 4) ~what (flags : string) (files : string list) =
  let args = String.concat " " files in
  let c1, out1, err1 =
    run_cli (Printf.sprintf "expand --jobs 1 %s %s" flags args)
  in
  let cn, outn, errn =
    run_cli
      (Printf.sprintf "expand --jobs %d --jobs-mode=domains %s %s" jobs flags
         args)
  in
  Alcotest.(check int) (what ^ ": same exit code") c1 cn;
  Alcotest.(check string) (what ^ ": byte-identical output") out1 outn;
  Alcotest.(check string) (what ^ ": byte-identical diagnostics") err1 errn;
  (c1, out1, err1)
