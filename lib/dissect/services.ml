type l4 = Tcp | Udp

type service = { service_name : string; port : int; l4 : l4 }

let svc name port l4 = { service_name = name; port; l4 }

(* Services plausible on a network-research testbed: infrastructure
   protocols, storage/database backends, experiment tooling. *)
let catalog =
  [|
    svc "ftp" 21 Tcp;
    svc "ssh" 22 Tcp;
    svc "telnet" 23 Tcp;
    svc "smtp" 25 Tcp;
    svc "dns" 53 Udp;
    svc "dns-tcp" 53 Tcp;
    svc "http" 80 Tcp;
    svc "ntp" 123 Udp;
    svc "snmp" 161 Udp;
    svc "bgp" 179 Tcp;
    svc "tls" 443 Tcp;
    svc "quic" 443 Udp;
    svc "syslog" 514 Udp;
    svc "rtsp" 554 Tcp;
    svc "ldap" 389 Tcp;
    svc "smb" 445 Tcp;
    svc "rsync" 873 Tcp;
    svc "openvpn" 1194 Udp;
    svc "mqtt" 1883 Tcp;
    svc "nfs" 2049 Tcp;
    svc "etcd" 2379 Tcp;
    svc "mysql" 3306 Tcp;
    svc "rdp" 3389 Tcp;
    svc "sip" 5060 Udp;
    svc "amqp" 5672 Tcp;
    svc "postgres" 5432 Tcp;
    svc "vnc" 5900 Tcp;
    svc "iperf3" 5201 Tcp;
    svc "iperf3-udp" 5201 Udp;
    svc "redis" 6379 Tcp;
    svc "irc" 6667 Tcp;
    svc "http-alt" 8080 Tcp;
    svc "grpc" 50051 Tcp;
    svc "kafka" 9092 Tcp;
    svc "cassandra" 9042 Tcp;
    svc "elasticsearch" 9200 Tcp;
    svc "prometheus" 9090 Tcp;
    svc "memcached" 11211 Tcp;
    svc "mongodb" 27017 Tcp;
    svc "wireguard" 51820 Udp;
    svc "vxlan" 4789 Udp;
    svc "geneve" 6081 Udp;
    svc "gtp" 2152 Udp;
    svc "sflow" 6343 Udp;
    svc "netflow" 2055 Udp;
    svc "ceph" 6789 Tcp;
    svc "glusterfs" 24007 Tcp;
    svc "bittorrent" 6881 Tcp;
    svc "scylla" 19042 Tcp;
    svc "minio" 9000 Tcp;
  |]

(* The lookup runs once per dissected frame, so it indexes instead of
   scanning: per L4 kind, one byte per port holds the catalog index + 1
   of the first entry on that port (0 for none). *)
let port_index l4 =
  assert (Array.length catalog < 0x100);
  let t = Bytes.make 0x10000 '\000' in
  Array.iteri
    (fun i s ->
      if s.l4 = l4 && Bytes.get_uint8 t s.port = 0 then Bytes.set_uint8 t s.port (i + 1))
    catalog;
  t

let tcp_ports = port_index Tcp
let udp_ports = port_index Udp

let find l4 port =
  if port < 0 || port > 0xFFFF then -1
  else Bytes.get_uint8 (match l4 with Tcp -> tcp_ports | Udp -> udp_ports) port - 1

let lookup_index l4 ~src_port ~dst_port =
  match find l4 dst_port with -1 -> find l4 src_port | i -> i

let by_name name = Array.find_opt (fun s -> s.service_name = name) catalog
