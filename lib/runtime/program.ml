exception Unstructured_use of string
exception No_executor

type 'a handle = {
  mutable result : 'a option;
  mutable last : Events.state option;
  mutable fulfilled : bool;
  mutable touched : bool;
  mutable waiters : (unit -> unit) list;
  mu : Mutex.t;
}

type _ Effect.t +=
  | Spawn : (unit -> unit) -> unit Effect.t
  | Sync : unit Effect.t
  | Create : (unit -> 'a) -> 'a handle Effect.t
  | Get : 'a handle -> 'a Effect.t

let spawn f = Effect.perform (Spawn f)
let sync () = Effect.perform Sync
let create f = Effect.perform (Create f)
let get h = Effect.perform (Get h)

type sink = { read : int -> unit; write : int -> unit; work : int -> unit }

let no_sink =
  let refuse _ = raise No_executor in
  { read = refuse; write = refuse; work = refuse }

let sink_key = Domain.DLS.new_key (fun () -> no_sink)

let with_sink (cb : Events.callbacks) cur f =
  let prev = Domain.DLS.get sink_key in
  Domain.DLS.set sink_key
    {
      read = (fun loc -> cb.on_read !cur loc);
      write = (fun loc -> cb.on_write !cur loc);
      work = (fun n -> cb.on_work !cur n);
    };
  Fun.protect ~finally:(fun () -> Domain.DLS.set sink_key prev) f

let work n = (Domain.DLS.get sink_key).work n

(* -- instrumented memory ---------------------------------------------- *)

type 'a arr = { data : 'a array; base_loc : int }

let next_loc = Atomic.make 0

let alloc n init =
  if n < 0 then invalid_arg "Program.alloc: negative length";
  let base_loc = Atomic.fetch_and_add next_loc n in
  { data = Array.make n init; base_loc }

let length a = Array.length a.data
let base a = a.base_loc

let rd a i =
  (Domain.DLS.get sink_key).read (a.base_loc + i);
  a.data.(i)

let wr a i x =
  (Domain.DLS.get sink_key).write (a.base_loc + i);
  a.data.(i) <- x

let rd_raw a i = a.data.(i)
let wr_raw a i x = a.data.(i) <- x

(* -- handle internals --------------------------------------------------- *)

module Handle = struct
  type status = Running | Done

  let make () =
    {
      result = None;
      last = None;
      fulfilled = false;
      touched = false;
      waiters = [];
      mu = Mutex.create ();
    }

  let fulfil h x ~last =
    Mutex.lock h.mu;
    if h.fulfilled then begin
      Mutex.unlock h.mu;
      invalid_arg "Handle.fulfil: already fulfilled"
    end
    else begin
      h.result <- Some x;
      h.last <- Some last;
      h.fulfilled <- true;
      let ws = h.waiters in
      h.waiters <- [];
      Mutex.unlock h.mu;
      List.iter (fun w -> w ()) (List.rev ws)
    end

  let status h =
    Mutex.lock h.mu;
    let s = if h.fulfilled then Done else Running in
    Mutex.unlock h.mu;
    s

  let result_exn h =
    match h.result with
    | Some x -> x
    | None -> invalid_arg "Handle.result_exn: not fulfilled"

  let last_exn h =
    match h.last with
    | Some s -> s
    | None -> invalid_arg "Handle.last_exn: not fulfilled"

  let claim_touch h =
    Mutex.lock h.mu;
    let again = h.touched in
    h.touched <- true;
    Mutex.unlock h.mu;
    if again then
      raise (Unstructured_use "get invoked twice on the same future handle")

  let add_waiter h w =
    Mutex.lock h.mu;
    if h.fulfilled then begin
      Mutex.unlock h.mu;
      false
    end
    else begin
      h.waiters <- w :: h.waiters;
      Mutex.unlock h.mu;
      true
    end
end
