(** [ms2c top] — a live terminal dashboard over a running serve daemon.

    Polls the daemon's admin surface ([health] + [metrics], protocol
    [ms2-serve-1]) over its Unix socket at a fixed interval and renders
    the RED view an operator wants at a glance: request rate, per-method
    p50/p99 latency, error counts, cache hit rate, and the
    recent-anomaly tail from the flight recorder.  Nothing here requires
    daemon cooperation beyond the two admin methods — [top] is a pure
    client and can watch a daemon it did not start.

    Quantiles come from the daemon's cumulative latency histograms
    ([serve.latency_ms.<method>]).  Between two polls the bucket deltas
    give an interval-local histogram, so the p50/p99 shown track the
    *recent* distribution rather than the daemon's whole lifetime; the
    first sample (and [--once]) falls back to the cumulative counts.
    Within a bucket the quantile is linearly interpolated, which is the
    standard Prometheus [histogram_quantile] estimate.

    [--once --format=json] emits a single machine-readable snapshot
    (schema [ms2-top-1]) and exits — the form the test-suite and
    scripts consume. *)

open Cmdliner
module Json = Ms2_support.Json
module Proto = Ms2_support.Serve_proto

let fatal fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "ms2c top: %s\n%!" msg;
      exit Cli_common.exit_fatal)
    fmt

(* ------------------------------------------------------------------ *)
(* Wire client                                                         *)
(* ------------------------------------------------------------------ *)

type link = { ic : in_channel; oc : out_channel }

let dial (path : string) : (link, string) result =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Ok
        { ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

(* One admin round trip.  Admin methods are answered inline at intake,
   in order, so a write followed by one line read stays in sync. *)
let request (l : link) ~(id : int) ~(meth : string) :
    (Json.t, string) result =
  let line =
    Json.to_string
      (Json.Obj
         [ ("schema", Json.Str Proto.schema);
           ("id", Json.Int id);
           ("method", Json.Str meth) ])
  in
  match
    output_string l.oc (line ^ "\n");
    flush l.oc;
    input_line l.ic
  with
  | exception (End_of_file | Sys_error _) -> Error "connection lost"
  | reply -> (
      match Json.parse reply with
      | Result.Error e -> Error (Printf.sprintf "bad response: %s" e)
      | Ok j -> (
          match Json.member j "ok" with
          | Some (Json.Bool true) -> Ok j
          | _ ->
              let msg =
                match Json.member j "error" with
                | Some e -> (
                    match Json.member e "message" with
                    | Some m -> Option.value (Json.str m) ~default:"?"
                    | None -> "?")
                | None -> "?"
              in
              Error (Printf.sprintf "%s failed: %s" meth msg)))

(* ------------------------------------------------------------------ *)
(* Metrics accessors                                                   *)
(* ------------------------------------------------------------------ *)

let counter (metrics : Json.t) (name : string) : int =
  match Json.member metrics "counters" with
  | Some c -> (
      match Json.member c name with
      | Some v -> Option.value (Json.int v) ~default:0
      | None -> 0)
  | None -> 0

let gauge (metrics : Json.t) (name : string) : float option =
  match Json.member metrics "gauges" with
  | Some g -> Option.bind (Json.member g name) Json.number
  | None -> None

(* A parsed histogram: cumulative counts per bucket, each with its
   upper bound ([infinity] for the +Inf bucket). *)
type hist = {
  h_count : int;
  h_sum : float;
  h_le : float array;  (** upper bound per bucket *)
  h_cum : int array;  (** cumulative count per bucket *)
}

let histogram (metrics : Json.t) (name : string) : hist option =
  match
    Option.bind (Json.member metrics "histograms") (fun h ->
        Json.member h name)
  with
  | None -> None
  | Some j ->
      let count =
        Option.value
          (Option.bind (Json.member j "count") Json.int)
          ~default:0
      in
      let sum =
        Option.value
          (Option.bind (Json.member j "sum") Json.number)
          ~default:0.
      in
      let buckets =
        Option.value
          (Option.bind (Json.member j "buckets") Json.list)
          ~default:[]
      in
      let le b =
        match Json.member b "le" with
        | Some (Json.Str _) -> infinity (* "+Inf" *)
        | Some v -> Option.value (Json.number v) ~default:infinity
        | None -> infinity
      in
      let cum b =
        Option.value (Option.bind (Json.member b "count") Json.int)
          ~default:0
      in
      Some
        {
          h_count = count;
          h_sum = sum;
          h_le = Array.of_list (List.map le buckets);
          h_cum = Array.of_list (List.map cum buckets);
        }

let histogram_names (metrics : Json.t) : string list =
  match Json.member metrics "histograms" with
  | Some (Json.Obj kvs) -> List.map fst kvs
  | _ -> []

(* Quantile estimate over cumulative bucket counts, Prometheus-style:
   find the bucket the target rank lands in and interpolate linearly
   between its bounds.  The +Inf bucket has no upper bound to
   interpolate toward, so it reports its lower bound (the largest
   finite boundary) — a floor, which is the honest direction to be
   wrong in. *)
let quantile_of_buckets (le : float array) (cum : int array) (q : float) :
    float option =
  let n = Array.length cum in
  if n = 0 || cum.(n - 1) = 0 then None
  else begin
    let total = cum.(n - 1) in
    let target = q *. float_of_int total in
    let rec find i = if i >= n - 1 || float_of_int cum.(i) >= target then i
      else find (i + 1)
    in
    let i = find 0 in
    let lo = if i = 0 then 0. else le.(i - 1) in
    let hi = le.(i) in
    if hi = infinity then Some lo
    else begin
      let below = if i = 0 then 0 else cum.(i - 1) in
      let inside = cum.(i) - below in
      if inside <= 0 then Some hi
      else
        let frac = (target -. float_of_int below) /. float_of_int inside in
        Some (lo +. (frac *. (hi -. lo)))
    end
  end

(* Interval-local histogram: the element-wise bucket delta between two
   samples of the same cumulative histogram.  Falls back to the current
   cumulative counts when there is no previous sample or nothing
   happened in the interval. *)
let delta_hist (prev : hist option) (cur : hist) : float array * int array
    =
  match prev with
  | Some p
    when Array.length p.h_cum = Array.length cur.h_cum
         && cur.h_count > p.h_count ->
      let d = Array.mapi (fun i c -> c - p.h_cum.(i)) cur.h_cum in
      (* guard against a daemon restart mid-watch (counts went down) *)
      if Array.exists (fun x -> x < 0) d then (cur.h_le, cur.h_cum)
      else (cur.h_le, d)
  | _ -> (cur.h_le, cur.h_cum)

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

type sample = {
  s_time : float;  (** [Unix.gettimeofday] at poll *)
  s_health : Json.t;  (** the whole health response object *)
  s_metrics : Json.t;  (** the embedded ms2-metrics-1 object *)
}

let poll (l : link) ~(seq : int) : (sample, string) result =
  match request l ~id:(2 * seq) ~meth:"health" with
  | Result.Error e -> Error e
  | Ok health -> (
      match request l ~id:((2 * seq) + 1) ~meth:"metrics" with
      | Result.Error e -> Error e
      | Ok reply -> (
          match Json.member reply "metrics" with
          | Some m ->
              Ok
                { s_time = Unix.gettimeofday ();
                  s_health = health;
                  s_metrics = m }
          | None -> Error "metrics response carried no \"metrics\""))

let health_int (s : sample) name =
  Option.value
    (Option.bind (Json.member s.s_health name) Json.int)
    ~default:0

let health_float (s : sample) name =
  Option.value
    (Option.bind (Json.member s.s_health name) Json.number)
    ~default:0.

let health_bool (s : sample) name =
  match Json.member s.s_health name with
  | Some (Json.Bool b) -> b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The computed dashboard                                              *)
(* ------------------------------------------------------------------ *)

type method_row = {
  m_name : string;
  m_requests : int;
  m_errors : int;
  m_rate : float option;  (** req/s over the last interval *)
  m_p50 : float option;  (** ms *)
  m_p99 : float option;  (** ms *)
}

type view = {
  v_ts_us : float;
  v_interval_ms : float option;  (** None on the first / only sample *)
  v_pid : int;
  v_uptime_ms : int;
  v_draining : bool;
  v_workers : int;
  v_in_flight : int;
  v_served : int;
  v_sessions : int;
  v_avg_ms : float;
  v_req_per_s : float option;
  v_methods : method_row list;
  v_cache_hits : int;
  v_cache_misses : int;
  v_shed : int;
  v_flight_dumps : int;
  v_anomalies : Json.t list;  (** newest first, as health reports *)
}

let latency_prefix = "serve.latency_ms."

let compute (prev : sample option) (cur : sample) : view =
  let m = cur.s_metrics in
  let dt =
    match prev with
    | Some p when cur.s_time > p.s_time -> Some (cur.s_time -. p.s_time)
    | _ -> None
  in
  let served = health_int cur "served" in
  let req_per_s =
    match (dt, prev) with
    | Some dt, Some p ->
        let d = served - health_int p "served" in
        if d >= 0 then Some (float_of_int d /. dt) else None
    | _ -> None
  in
  let methods =
    histogram_names m
    |> List.filter_map (fun name ->
           if
             String.length name > String.length latency_prefix
             && String.sub name 0 (String.length latency_prefix)
                = latency_prefix
           then
             let meth =
               String.sub name
                 (String.length latency_prefix)
                 (String.length name - String.length latency_prefix)
             in
             match histogram m name with
             | None -> None
             | Some h ->
                 let prev_h =
                   Option.bind prev (fun p -> histogram p.s_metrics name)
                 in
                 let le, cum = delta_hist prev_h h in
                 let requests = counter m ("serve.requests." ^ meth) in
                 let rate =
                   match (dt, prev) with
                   | Some dt, Some p ->
                       let d =
                         requests
                         - counter p.s_metrics ("serve.requests." ^ meth)
                       in
                       if d >= 0 then Some (float_of_int d /. dt)
                       else None
                   | _ -> None
                 in
                 Some
                   {
                     m_name = meth;
                     m_requests = requests;
                     m_errors = counter m ("serve.errors." ^ meth);
                     m_rate = rate;
                     m_p50 = quantile_of_buckets le cum 0.50;
                     m_p99 = quantile_of_buckets le cum 0.99;
                   }
           else None)
    |> List.sort (fun a b -> compare b.m_requests a.m_requests)
  in
  let anomalies =
    Option.value
      (Option.bind (Json.member cur.s_health "anomalies") Json.list)
      ~default:[]
  in
  {
    v_ts_us = cur.s_time *. 1e6;
    v_interval_ms = Option.map (fun dt -> dt *. 1e3) dt;
    v_pid = health_int cur "pid";
    v_uptime_ms = health_int cur "uptime_ms";
    v_draining = health_bool cur "draining";
    v_workers = health_int cur "workers";
    v_in_flight = health_int cur "in_flight";
    v_served = served;
    v_sessions = health_int cur "sessions";
    v_avg_ms = health_float cur "avg_ms";
    v_req_per_s = req_per_s;
    v_methods = methods;
    v_cache_hits = counter m "cache.hits";
    v_cache_misses = counter m "cache.misses";
    v_shed = counter m "serve.shed";
    v_flight_dumps = counter m "serve.flight_dumps";
    v_anomalies = anomalies;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let ratio num den =
  if den <= 0 then None else Some (float_of_int num /. float_of_int den)

let pct = function
  | None -> "   -  "
  | Some r -> Printf.sprintf "%5.1f%%" (100. *. r)

let opt_ms = function
  | None -> "      -" | Some v -> Printf.sprintf "%7.2f" v

let opt_rate = function
  | None -> "     -" | Some v -> Printf.sprintf "%6.1f" v

let fmt_uptime ms =
  let s = ms / 1000 in
  if s < 60 then Printf.sprintf "%ds" s
  else if s < 3600 then Printf.sprintf "%dm%02ds" (s / 60) (s mod 60)
  else Printf.sprintf "%dh%02dm" (s / 3600) (s mod 3600 / 60)

let render_text (v : view) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "ms2c top — pid %d  up %s%s  workers %d  sessions %d" v.v_pid
    (fmt_uptime v.v_uptime_ms)
    (if v.v_draining then "  DRAINING" else "")
    v.v_workers v.v_sessions;
  line "served %d  in-flight %d  %s req/s  avg %.2f ms  shed %d  flight dumps %d"
    v.v_served v.v_in_flight
    (match v.v_req_per_s with
    | None -> "-" | Some r -> Printf.sprintf "%.1f" r)
    v.v_avg_ms v.v_shed v.v_flight_dumps;
  line "";
  line "  %-12s %9s %7s %7s %8s %8s" "method" "requests" "errors"
    "req/s" "p50 ms" "p99 ms";
  if v.v_methods = [] then line "  (no requests yet)"
  else
    List.iter
      (fun r ->
        line "  %-12s %9d %7d %7s %8s %8s" r.m_name r.m_requests
          r.m_errors (opt_rate r.m_rate) (opt_ms r.m_p50)
          (opt_ms r.m_p99))
      v.v_methods;
  line "";
  line "cache      hits %d  misses %d  hit rate %s" v.v_cache_hits
    v.v_cache_misses
    (pct (ratio v.v_cache_hits (v.v_cache_hits + v.v_cache_misses)));
  line "";
  (match v.v_anomalies with
  | [] -> line "anomalies  (none)"
  | an ->
      line "anomalies  (newest first)";
      let take n l =
        List.filteri (fun i _ -> i < n) l
      in
      List.iter
        (fun a ->
          let f name =
            match Json.member a name with
            | Some (Json.Str s) -> s
            | Some v -> Json.to_string v
            | None -> "-"
          in
          line "  %-18s trace %s  %s" (f "kind") (f "trace_id")
            (f "detail"))
        (take 5 an));
  Buffer.contents b

let json_opt_float = function
  | None -> Json.Null
  | Some f -> Json.Float f

let render_json (v : view) : string =
  let methods =
    List.map
      (fun r ->
        Json.Obj
          [ ("method", Json.Str r.m_name);
            ("requests", Json.Int r.m_requests);
            ("errors", Json.Int r.m_errors);
            ("rate_per_s", json_opt_float r.m_rate);
            ("p50_ms", json_opt_float r.m_p50);
            ("p99_ms", json_opt_float r.m_p99) ])
      v.v_methods
  in
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str "ms2-top-1");
         ("ts_us", Json.Float v.v_ts_us);
         ("interval_ms", json_opt_float v.v_interval_ms);
         ("pid", Json.Int v.v_pid);
         ("uptime_ms", Json.Int v.v_uptime_ms);
         ("draining", Json.Bool v.v_draining);
         ("workers", Json.Int v.v_workers);
         ("in_flight", Json.Int v.v_in_flight);
         ("served", Json.Int v.v_served);
         ("sessions", Json.Int v.v_sessions);
         ("avg_ms", Json.Float v.v_avg_ms);
         ("req_per_s", json_opt_float v.v_req_per_s);
         ("methods", Json.List methods);
         ("cache",
          Json.Obj
            [ ("hits", Json.Int v.v_cache_hits);
              ("misses", Json.Int v.v_cache_misses);
              ("hit_rate",
               json_opt_float
                 (ratio v.v_cache_hits (v.v_cache_hits + v.v_cache_misses)))
            ]);
         ("shed", Json.Int v.v_shed);
         ("flight_dumps", Json.Int v.v_flight_dumps);
         ("anomalies", Json.List v.v_anomalies) ])

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

type format = Text | Json_fmt

let run_top connect interval_ms once format : unit =
  let link =
    match dial connect with
    | Ok l -> l
    | Result.Error e -> fatal "%s: cannot connect: %s" connect e
  in
  let link = ref link in
  let clear = (not once) && format = Text && Unix.isatty Unix.stdout in
  let prev = ref None in
  let seq = ref 0 in
  let tick () =
    match poll !link ~seq:!seq with
    | Result.Error e ->
        (* one re-dial covers a supervised daemon restarting under us *)
        (match dial connect with
        | Ok l ->
            link := l;
            prev := None
        | Result.Error e' -> fatal "%s: %s (re-dial: %s)" connect e e')
    | Ok s ->
        incr seq;
        let v = compute !prev s in
        prev := Some s;
        let out =
          match format with
          | Text -> render_text v
          | Json_fmt -> render_json v ^ "\n"
        in
        if clear then print_string "\027[2J\027[H";
        print_string out;
        flush stdout
  in
  tick ();
  if not once then
    while true do
      Unix.sleepf (float_of_int interval_ms /. 1000.);
      tick ()
    done

let connect_arg =
  Arg.(required & opt (some string) None
       & info [ "connect" ] ~docv:"SOCKET"
           ~doc:"Unix socket of the daemon to watch (its \
                 $(b,--socket) path).")

let interval_ms_arg =
  Arg.(value & opt Cli_common.pos_int 1000
       & info [ "interval-ms" ] ~docv:"MS"
           ~doc:"Polling interval in milliseconds.")

let once_arg =
  Arg.(value & flag
       & info [ "once" ]
           ~doc:"Poll a single time, print one snapshot and exit \
                 (rates that need two samples render as null/-).")

let format_arg =
  let fmt_conv = Arg.enum [ ("text", Text); ("json", Json_fmt) ] in
  Arg.(value & opt fmt_conv Text
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: $(b,text) renders a dashboard, \
                 $(b,json) emits one ms2-top-1 object per poll.")

let cmd : unit Cmd.t =
  Cmd.v
    (Cmd.info "top"
       ~doc:"Watch a running serve daemon: request rates, per-method \
             p50/p99 latency, cache hit rate and recent anomalies, \
             polled over its admin socket")
    Term.(const run_top $ connect_arg $ interval_ms_arg $ once_arg
          $ format_arg)
