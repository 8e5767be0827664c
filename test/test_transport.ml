(* The NF1 transport end to end, on the Unix socket and on TCP: the
   hello handshake, per-connection pipelining with out-of-order
   completion, rejection of peers that do not speak NF1, torn-frame
   containment, the frame cap, the idle reaper and slow-loris I/O
   deadline, client receive timeouts, and — the capstone — every
   Netfault class driven through a real chaos proxy in front of a real
   server, with request_retry recovering each time. *)

module Server = Nascent_support.Server
module Client = Server.Client
module Frame = Nascent_support.Frame
module Netfault = Nascent_support.Netfault
module Json = Nascent_support.Json
module Retry = Nascent_support.Retry

let sfield = Test_server.sfield
let ifield = Test_server.ifield
let bfield = Test_server.bfield
let request_exn = Test_server.request_exn
let parse_exn = Test_server.parse_exn
let raw_connect = Test_server.raw_connect
let send_raw = Test_server.send_raw
let read_one_frame = Test_server.read_one_frame
let raw_handshake = Test_server.raw_handshake
let status_req = Json.Obj [ ("op", Json.Str "status") ]

(* every test here boots its server with a TCP listener on an
   ephemeral port alongside the Unix socket *)
let with_tcp ?(tune = fun c -> c) handler f =
  Test_server.with_server
    ~tune:(fun c -> tune { c with Server.tcp = Some ("127.0.0.1", 0) })
    handler
    (fun path srv ->
      match Server.tcp_port srv with
      | Some port -> f path srv port
      | None -> Alcotest.fail "TCP listener reported no bound port")

(* both sockets of a [with_tcp] server *)
let both_addrs path port = [ Client.Uds path; Client.Tcp ("127.0.0.1", port) ]

let ok_handler =
  {
    Server.handle =
      (fun req ->
        let tag =
          match Json.member "tag" req with Some t -> t | None -> Json.Null
        in
        Json.Obj [ ("status", Json.Str "ok"); ("tag", tag) ]);
    status_extra = (fun () -> []);
  }

let status_of path = Client.with_conn path (fun c -> request_exn c status_req)

let read_all_raw fd =
  let buf = Bytes.create 4096 in
  let out = Buffer.create 256 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 | (exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)) ->
        Buffer.contents out
    | n ->
        Buffer.add_subbytes out buf 0 n;
        go ()
  in
  go ()

(* --- handshake + pipelining ------------------------------------------- *)

let test_tcp_hello_and_request () =
  with_tcp ok_handler (fun path _ port ->
      let conn = Client.connect_addr (Client.Tcp ("127.0.0.1", port)) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let resp =
            request_exn conn (Json.Obj [ ("id", Json.Int 7); ("op", Json.Str "status") ])
          in
          Alcotest.(check string) "status over TCP" "ok" (sfield resp "status"));
      (* the Unix socket speaks the same protocol on the same server *)
      Alcotest.(check int) "no proto rejects from a correct client" 0
        (ifield (status_of path) "proto_rejects"))

let test_pipelining_out_of_order () =
  let slow_fast =
    {
      Server.handle =
        (fun req ->
          (match Json.member "sleep_ms" req with
          | Some (Json.Int ms) -> Thread.delay (float_of_int ms /. 1000.0)
          | _ -> ());
          Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
    }
  in
  with_tcp slow_fast (fun _ _ port ->
      let conn = Client.connect_addr ~recv_timeout_s:10.0 (Client.Tcp ("127.0.0.1", port)) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let slow =
            Client.pipeline_send conn
              (Json.Obj [ ("id", Json.Int 1); ("sleep_ms", Json.Int 400) ])
          in
          let fast =
            Client.pipeline_send conn (Json.Obj [ ("id", Json.Int 2) ])
          in
          let recv_tag () =
            match Client.pipeline_recv conn with
            | Ok (Some (fid, _)) -> fid
            | Ok None -> Alcotest.fail "EOF mid-pipeline"
            | Error _ -> Alcotest.fail "decode error mid-pipeline"
          in
          (* two workers: the fast request finishes and is written back
             while the slow one still sleeps *)
          Alcotest.(check int) "fast response overtakes slow" fast (recv_tag ());
          Alcotest.(check int) "slow response still arrives" slow (recv_tag ())))

(* --- protocol rejection ------------------------------------------------ *)

(* Whatever the first bytes on either socket, a peer that does not open
   with an NF1 hello gets one proto-mismatch line and a close, counted
   once as a proto reject and never as a frame error. *)
let rejects_opener (what, bytes) () =
  with_tcp ok_handler (fun path _ port ->
      List.iter
        (fun addr ->
          let where =
            Printf.sprintf "%s on %s" what (Client.address_to_string addr)
          in
          let before = status_of path in
          let fd = raw_connect addr in
          let got =
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                send_raw fd bytes;
                read_all_raw fd)
          in
          (match String.split_on_char '\n' got with
          | [ line; "" ] ->
              Alcotest.(check string) (where ^ ": proto-mismatch") "proto-mismatch"
                (sfield (parse_exn line) "code")
          | _ -> Alcotest.failf "%s: expected one line, got %S" where got);
          let after = status_of path in
          let delta f = ifield after f - ifield before f in
          Alcotest.(check int) (where ^ ": one proto reject") 1
            (delta "proto_rejects");
          Alcotest.(check int) (where ^ ": no frame error") 0 (delta "frame_errors"))
        (both_addrs path port))

let test_legacy_client_rejected =
  rejects_opener ("newline JSON", Json.to_string status_req ^ "\n")

let test_version_mismatch_rejected =
  let b = Bytes.of_string (Frame.encode ~id:0 (Json.to_string (Frame.hello ()))) in
  Bytes.set b 3 '\x02' (* a future protocol version *);
  rejects_opener ("wrong version", Bytes.to_string b)

let test_non_nf1_rejected = rejects_opener ("garbage", "GET / HTTP/1.0\r\n\r\n")

let test_torn_frame_after_hello () =
  with_tcp ok_handler (fun path _ port ->
      let fd = raw_connect (Client.Tcp ("127.0.0.1", port)) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let dec = raw_handshake fd in
          (* a frame whose payload byte was flipped: CRC must catch it *)
          let torn =
            let s = Frame.encode ~id:1 {|{"op":"status"}|} in
            let b = Bytes.of_string s in
            Bytes.set b Frame.header_bytes 'X';
            Bytes.to_string b
          in
          send_raw fd torn;
          (* a greeted connection gets a *framed* error before the
             close, so a pipelining client sees a well-formed stream
             end, not garbage *)
          (match read_one_frame fd dec with
          | Ok (Some f) ->
              let resp = parse_exn f.Frame.payload in
              Alcotest.(check string) "framed frame-error" "frame-error"
                (sfield resp "code");
              Alcotest.(check bool) "a tear is worth a retry" true
                (bfield resp "retryable")
          | Ok None -> Alcotest.fail "closed without the framed error"
          | Error e ->
              Alcotest.failf "server sent undecodable bytes: %a" Frame.pp_error e);
          match read_one_frame fd dec with
          | Ok None -> () (* EOF: the connection is terminal *)
          | Ok (Some _) -> Alcotest.fail "connection survived a torn frame"
          | Error e -> Alcotest.failf "garbage after error: %a" Frame.pp_error e);
      Alcotest.(check bool) "frame_errors counted" true
        (ifield (status_of path) "frame_errors" >= 1))

(* The frame cap holds on both sockets: a forged header is refused
   before its payload is buffered, and a real request over the cap is a
   fatal frame-error answered on the first attempt — the same bytes
   would be refused again, so the client does not retry them. *)
let test_oversized_frame_rejected () =
  let cap = 1024 in
  with_tcp
    ~tune:(fun c -> { c with Server.max_frame_bytes = cap })
    ok_handler
    (fun path _ port ->
      let fd = raw_connect (Client.Tcp ("127.0.0.1", port)) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let dec = raw_handshake fd in
          let forged =
            let b = Bytes.of_string (Frame.encode ~id:1 "x") in
            Bytes.set b 12 '\x7f';
            Bytes.set b 13 '\xff';
            Bytes.set b 14 '\xff';
            Bytes.set b 15 '\xff';
            Bytes.sub_string b 0 Frame.header_bytes
          in
          send_raw fd forged;
          (match read_one_frame fd dec with
          | Ok (Some f) ->
              Alcotest.(check string) "framed frame-error" "frame-error"
                (sfield (parse_exn f.Frame.payload) "code")
          | Ok None -> Alcotest.fail "closed without the framed error"
          | Error e -> Alcotest.failf "undecodable: %a" Frame.pp_error e);
          match read_one_frame fd dec with
          | Ok None -> ()
          | _ -> Alcotest.fail "connection survived an oversized header");
      let big = Json.Obj [ ("tag", Json.Str (String.make (4 * cap) 'x')) ] in
      List.iter
        (fun addr ->
          let where = Client.address_to_string addr in
          let sleeps = ref 0 in
          match
            Client.request_retry ~sleep:(fun _ -> incr sleeps) ~seed:1 where big
          with
          | Ok resp ->
              Alcotest.(check string) (where ^ ": over the cap") "frame-error"
                (sfield resp "code");
              Alcotest.(check bool) (where ^ ": not retryable") false
                (bfield resp "retryable");
              Alcotest.(check int) (where ^ ": answered on the first attempt") 0 !sleeps
          | Error e -> Alcotest.failf "%s: %s" where e)
        (both_addrs path port);
      Alcotest.(check int) "frame_errors counted" 3
        (ifield (status_of path) "frame_errors"))

(* --- reaper and deadlines ---------------------------------------------- *)

let test_idle_reaper which () =
  with_tcp
    ~tune:(fun c -> { c with Server.idle_timeout_s = Some 0.2 })
    ok_handler
    (fun path _ port ->
      let addr =
        match which with
        | `Uds -> Client.Uds path
        | `Tcp -> Client.Tcp ("127.0.0.1", port)
      in
      let conn = Client.connect_addr addr in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (* greeted, then silent: the reaper closes it *)
          match Client.pipeline_recv conn with
          | Ok None -> ()
          | Ok (Some _) -> Alcotest.fail "reaped connection produced a frame"
          | Error e ->
              Alcotest.failf "reaped connection garbled: %s"
                (match e with
                | `Frame fe -> Frame.error_name fe
                | `Garbled s -> s));
      Alcotest.(check bool) "idle_closed counted" true
        (ifield (status_of path) "idle_closed" >= 1))

let test_io_deadline_cuts_slow_loris () =
  with_tcp
    ~tune:(fun c -> { c with Server.io_deadline_s = Some 0.3 })
    ok_handler
    (fun path _ port ->
      let fd = raw_connect (Client.Tcp ("127.0.0.1", port)) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let dec = raw_handshake fd in
          (* start a frame and stall: the mid-frame deadline must cut
             us off rather than hold the reader hostage *)
          let frame = Frame.encode ~id:1 {|{"op":"status"}|} in
          send_raw fd (String.sub frame 0 10);
          let rec drain () =
            match read_one_frame fd dec with
            | Ok (Some _) -> drain ()
            | Ok None -> ()
            | Error e -> Alcotest.failf "garbage at close: %a" Frame.pp_error e
          in
          drain ());
      Alcotest.(check bool) "io_timeouts counted" true
        (ifield (status_of path) "io_timeouts" >= 1))

(* A fake server on a Unix socket: [serve fd] runs on the one accepted
   connection. *)
let with_fake_server serve f =
  let path = Test_server.fresh_socket () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let accepted = ref None in
  let server =
    Thread.create
      (fun () ->
        match Unix.accept lfd with
        | exception _ -> ()
        | fd, _ ->
            accepted := Some fd;
            serve fd)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with _ -> ());
      Thread.join server;
      (match !accepted with Some fd -> ( try Unix.close fd with _ -> ()) | None -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_client_recv_timeout () =
  (* a listener that accepts and never answers — not even the hello:
     the client's receive deadline must fire instead of hanging *)
  with_fake_server ignore (fun path ->
      match
        Client.with_addr ~recv_timeout_s:0.3 (Client.Uds path) (fun conn ->
            Client.exchange conn status_req)
      with
      | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> ()
      | Ok _ -> Alcotest.fail "silent server produced a response"
      | Error _ -> Alcotest.fail "expected ETIMEDOUT, got a protocol error")

let test_dribbled_response () =
  (* a server that answers one byte at a time: the client's frame
     decoder must reassemble both the hello-ack and the response *)
  let dribble fd s =
    String.iter
      (fun c ->
        ignore (Unix.write fd (Bytes.make 1 c) 0 1);
        Thread.delay 0.002)
      s
  in
  let serve fd =
    let dec = Frame.decoder () in
    match read_one_frame fd dec with
    | Ok (Some hello) -> (
        dribble fd (Frame.encode ~id:hello.Frame.id (Json.to_string (Frame.hello ())));
        match read_one_frame fd dec with
        | Ok (Some req) ->
            dribble fd (Frame.encode ~id:req.Frame.id {|{"id": 1, "status": "ok"}|})
        | _ -> ())
    | _ -> ()
  in
  with_fake_server serve (fun path ->
      Client.with_conn path (fun conn ->
          let resp = request_exn conn (Json.Obj [ ("id", Json.Int 1) ]) in
          Alcotest.(check string) "reassembled" "ok" (sfield resp "status")))

(* --- chaos e2e --------------------------------------------------------- *)

(* Every fault class, through a real proxy in front of a real server,
   listening on [listen] and forwarding to the server socket of the
   same family: request_retry must recover every time — the faulted
   connection costs a retry, never an error. Deterministic in the
   seed. *)
let chaos_classes_recover ~listen ~upstream =
  List.iter
    (fun cls ->
      List.iter
        (fun seed ->
          let spec = { Netfault.cls; seed } in
          let stop = ref false in
          let bound = ref None in
          let lock = Mutex.create () in
          let bound_cv = Condition.create () in
          let proxy =
            Thread.create
              (fun () ->
                Netfault.proxy ~listen ~upstream
                  ~stop:(fun () -> !stop)
                  ~delay_s:1.0
                  ~on_listen:(fun addr ->
                    Mutex.lock lock;
                    bound :=
                      Some
                        (match addr with
                        | Unix.ADDR_INET (_, p) -> Printf.sprintf "127.0.0.1:%d" p
                        | Unix.ADDR_UNIX p -> p);
                    Condition.signal bound_cv;
                    Mutex.unlock lock)
                  spec)
              ()
          in
          Mutex.lock lock;
          while !bound = None do
            Condition.wait bound_cv lock
          done;
          let addr = Option.get !bound in
          Mutex.unlock lock;
          Fun.protect
            ~finally:(fun () ->
              stop := true;
              Thread.join proxy)
            (fun () ->
              (* connection 0 is faulted for seed 0; later seeds
                 shift the faulted residue — both paths must end Ok *)
              for i = 0 to 2 do
                match
                  Client.request_retry ~recv_timeout_s:2.0 ~seed:i addr
                    (Json.Obj [ ("id", Json.Int i); ("tag", Json.Int (100 + i)) ])
                with
                | Ok resp ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s via %s req %d recovered"
                         (Netfault.to_string spec) addr i)
                      "ok" (sfield resp "status")
                | Error e ->
                    Alcotest.failf "%s via %s req %d failed: %s"
                      (Netfault.to_string spec) addr i e
              done))
        [ 0; 1 ])
    Netfault.all_classes

let test_chaos_classes_recover () =
  with_tcp
    ~tune:(fun c -> { c with Server.io_deadline_s = Some 0.3 })
    ok_handler
    (fun path _ port ->
      let proxy_path = Test_server.fresh_socket () in
      List.iter
        (fun (listen, upstream) -> chaos_classes_recover ~listen ~upstream)
        [
          ( Unix.ADDR_INET (Unix.inet_addr_loopback, 0),
            Unix.ADDR_INET (Unix.inet_addr_loopback, port) );
          (Unix.ADDR_UNIX proxy_path, Unix.ADDR_UNIX path);
        ])

let suite =
  [
    Alcotest.test_case "TCP hello and request" `Quick test_tcp_hello_and_request;
    Alcotest.test_case "pipelining completes out of order" `Quick
      test_pipelining_out_of_order;
    Alcotest.test_case "legacy line client rejected" `Quick
      test_legacy_client_rejected;
    Alcotest.test_case "version mismatch rejected" `Quick
      test_version_mismatch_rejected;
    Alcotest.test_case "non-NF1 first bytes rejected" `Quick
      test_non_nf1_rejected;
    Alcotest.test_case "torn frame answered framed, then closed" `Quick
      test_torn_frame_after_hello;
    Alcotest.test_case "oversized header rejected" `Quick
      test_oversized_frame_rejected;
    Alcotest.test_case "idle reaper on UDS" `Quick (test_idle_reaper `Uds);
    Alcotest.test_case "idle reaper on TCP" `Quick (test_idle_reaper `Tcp);
    Alcotest.test_case "io deadline cuts slow loris" `Quick
      test_io_deadline_cuts_slow_loris;
    Alcotest.test_case "client recv timeout" `Quick test_client_recv_timeout;
    Alcotest.test_case "dribbled response reassembled" `Quick
      test_dribbled_response;
    Alcotest.test_case "chaos classes recover through proxy" `Slow
      test_chaos_classes_recover;
  ]
