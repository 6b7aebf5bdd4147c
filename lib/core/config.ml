(* Deployment configuration; see the interface.  One record behind
   every constructor, instead of a keyword argument per knob on each. *)

type t = {
  seed : string option;
  n_servers : int;
  noise : Vuvuzela_dp.Laplace.params;
  dial_noise : Vuvuzela_dp.Laplace.params;
  noise_mode : Vuvuzela_dp.Noise.mode;
  dial_kind : Dialing.kind;
  jobs : int;
  pipeline : bool;
  pipeline_chunk : int;
  deaddrop_shards : int;
  cdn_edges : int;
  fault_plan : Vuvuzela_faults.Fault.plan option;
  tap : (round:int -> server:int -> bytes array -> unit) option;
  telemetry : Vuvuzela_telemetry.Telemetry.t option;
  budget_warn : float option;
  round_deadline_ms : float option;
  max_retries : int;
  handshake_timeout_ms : float;
  admission_ms : float option;
  client_latency : (float * float) option;
  flap_grace_ms : float;
  link : Vuvuzela_transport.Shaper.config option;
  obs_dir : string option;
  obs_scrape : (int * Unix.sockaddr) list;
}

let default =
  {
    seed = None;
    n_servers = 3;
    noise = Vuvuzela_dp.Laplace.params ~mu:10. ~b:2.;
    dial_noise = Vuvuzela_dp.Laplace.params ~mu:3. ~b:1.;
    noise_mode = Vuvuzela_dp.Noise.Sampled;
    dial_kind = Dialing.Plain;
    jobs = 1;
    pipeline = false;
    pipeline_chunk = 16;
    deaddrop_shards = 1;
    cdn_edges = 0;
    fault_plan = None;
    tap = None;
    telemetry = None;
    budget_warn = None;
    round_deadline_ms = None;
    max_retries = 2;
    handshake_timeout_ms = 30_000.;
    admission_ms = None;
    client_latency = None;
    flap_grace_ms = 2000.;
    link = None;
    obs_dir = None;
    obs_scrape = [];
  }

let with_seed seed t = { t with seed = Some seed }
let with_n_servers n_servers t = { t with n_servers }
let with_noise noise t = { t with noise }
let with_dial_noise dial_noise t = { t with dial_noise }
let with_noise_mode noise_mode t = { t with noise_mode }
let with_dial_kind dial_kind t = { t with dial_kind }
let with_jobs jobs t = { t with jobs }
let with_pipeline ?(chunk = default.pipeline_chunk) pipeline t =
  { t with pipeline; pipeline_chunk = max 1 chunk }
let part_chunk t = if t.pipeline then Some (max 1 t.pipeline_chunk) else None
let with_deaddrop_shards shards t = { t with deaddrop_shards = max 1 shards }
let with_entry_streaming (_ : bool) t = t
let with_cdn_edges cdn_edges t = { t with cdn_edges }
let with_fault_plan plan t = { t with fault_plan = Some plan }
let with_tap tap t = { t with tap = Some tap }
let with_telemetry tel t = { t with telemetry = Some tel }
let with_budget_warn eps t = { t with budget_warn = Some eps }
let with_round_deadline_ms ms t = { t with round_deadline_ms = Some ms }
let with_max_retries max_retries t = { t with max_retries = max 0 max_retries }
let with_handshake_timeout_ms handshake_timeout_ms t =
  { t with handshake_timeout_ms }
let with_admission_ms ms t = { t with admission_ms = Some ms }
let with_client_latency ~base_ms ~jitter_ms t =
  { t with client_latency = Some (base_ms, jitter_ms) }
let with_flap_grace_ms flap_grace_ms t = { t with flap_grace_ms }
let with_link link t = { t with link = Some link }
let with_obs_dir dir t = { t with obs_dir = Some dir }
let with_obs_scrape targets t = { t with obs_scrape = targets }
