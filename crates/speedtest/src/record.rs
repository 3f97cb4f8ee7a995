//! The measurement record schema.
//!
//! One [`Measurement`] is one completed speed test together with the
//! contextual metadata the paper's recommendations say must travel with it:
//! platform, access medium, WiFi band/RSSI, kernel memory, and timestamp.
//! The `truth_tier` field carries the generator's ground-truth plan
//! assignment; evaluation code uses it for scoring and the BST pipeline
//! never reads it.

use serde::Serialize;
use st_netsim::{Band, MemoryClass};

/// Which vendor's methodology produced the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Vendor {
    /// Ookla Speedtest (multi-connection).
    Ookla,
    /// M-Lab Speed Test / NDT (single connection).
    MLab,
    /// FCC Measuring Broadband America whitebox (wired panel hardware).
    Mba,
}

impl Vendor {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Vendor::Ookla => "Ookla",
            Vendor::MLab => "M-Lab",
            Vendor::Mba => "MBA",
        }
    }
}

/// The client platform, following the paper's Table 3 row structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Platform {
    /// Ookla native Android app (always on WiFi; reports band/RSSI/memory).
    AndroidApp,
    /// Ookla native iOS app (always on WiFi).
    IosApp,
    /// Ookla native desktop app on WiFi.
    DesktopWifiApp,
    /// Ookla native desktop app on Ethernet.
    DesktopEthernetApp,
    /// Ookla web portal (no device metadata).
    Web,
    /// M-Lab NDT via the web portal (no device metadata).
    NdtWeb,
    /// FCC MBA whitebox: wired panel hardware testing around the clock.
    MbaUnit,
}

impl Platform {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Platform::AndroidApp => "Android-App",
            Platform::IosApp => "iOS-App",
            Platform::DesktopWifiApp => "Desktop WiFi-App",
            Platform::DesktopEthernetApp => "Desktop Ethernet-App",
            Platform::Web => "Net-Web",
            Platform::NdtWeb => "NDT-Web",
            Platform::MbaUnit => "MBA-Unit",
        }
    }

    /// The vendor that operates this platform.
    pub fn vendor(&self) -> Vendor {
        match self {
            Platform::NdtWeb => Vendor::MLab,
            Platform::MbaUnit => Vendor::Mba,
            _ => Vendor::Ookla,
        }
    }

    /// Whether this platform reports device metadata (native apps do;
    /// web-based tests do not — paper §3.1; MBA units are wired hardware).
    pub fn has_device_metadata(&self) -> bool {
        !matches!(self, Platform::Web | Platform::NdtWeb | Platform::MbaUnit)
    }

    /// All crowdsourced platforms in the paper's table order (excludes the
    /// MBA panel, which is not crowdsourced).
    pub fn all() -> [Platform; 6] {
        [
            Platform::AndroidApp,
            Platform::IosApp,
            Platform::DesktopWifiApp,
            Platform::DesktopEthernetApp,
            Platform::Web,
            Platform::NdtWeb,
        ]
    }
}

/// The access medium recorded for the test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Access {
    /// WiFi, with the band and RSSI metadata Android tests report.
    Wifi {
        /// Spectrum band.
        band: Band,
        /// Signal strength at the device, dBm.
        rssi_dbm: f64,
    },
    /// Wired Ethernet.
    Ethernet,
    /// Unknown (web-based tests carry no access metadata).
    Unknown,
}

impl Access {
    /// Whether the medium is known to be WiFi.
    pub fn is_wifi(&self) -> bool {
        matches!(self, Access::Wifi { .. })
    }
}

/// One completed speed test with its context.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Measurement {
    /// Unique test id.
    pub id: u64,
    /// Stable per-user id (native apps only in the real data; the
    /// generator assigns one to every test).
    pub user_id: u64,
    /// Platform that ran the test.
    pub platform: Platform,
    /// City index (0 = City-A .. 3 = City-D).
    pub city: u8,
    /// Day of year, 0-based (0..365).
    pub day: u16,
    /// Local hour of day, 0..24.
    pub hour: u8,
    /// Measured download speed, Mbps.
    pub down_mbps: f64,
    /// Measured upload speed, Mbps.
    pub up_mbps: f64,
    /// Measured idle round-trip time, milliseconds.
    pub rtt_ms: f64,
    /// RTT while the download was loading the path, milliseconds
    /// ("latency under load"; equals `rtt_ms` when the path never queued).
    pub loaded_rtt_ms: f64,
    /// Access medium (and WiFi metadata where the platform reports it).
    pub access: Access,
    /// Kernel memory available during the test, GB (Android only).
    pub kernel_memory_gb: Option<f64>,
    /// Ground-truth subscription tier (generator-known; used only by
    /// evaluation code, never by BST itself).
    pub truth_tier: Option<usize>,
}

impl Measurement {
    /// The vendor behind this measurement.
    pub fn vendor(&self) -> Vendor {
        self.platform.vendor()
    }

    /// Memory bin, if the platform reported memory.
    pub fn memory_class(&self) -> Option<MemoryClass> {
        self.kernel_memory_gb.map(MemoryClass::from_gb)
    }

    /// Six-hour time-of-day bin index 0..4 (00-06, 06-12, 12-18, 18-00),
    /// as used by the paper's Figs. 11 and 12.
    pub fn time_bin(&self) -> usize {
        (self.hour as usize % 24) / 6
    }

    /// Label for the six-hour bin. Out-of-range bins clamp to the last
    /// label (debug builds assert) so one malformed record degrades to a
    /// mislabeled bin instead of aborting a whole campaign.
    pub fn time_bin_label(bin: usize) -> &'static str {
        debug_assert!(bin < 4, "time bin must be 0..4, got {bin}");
        match bin {
            0 => "00-06",
            1 => "06-12",
            2 => "12-18",
            _ => "18-24",
        }
    }

    /// Month index 0..12 derived from the day of year (for the per-month
    /// consistency analysis of §5.2).
    pub fn month(&self) -> usize {
        month_of_day(self.day)
    }
}

/// Column names of the CSV export, in order: one column per record field,
/// with the access medium split into `access` / `band` / `rssi_dbm` and
/// the platform's vendor spelled out.
const CSV_HEADER: [&str; 16] = [
    "id",
    "user_id",
    "platform",
    "vendor",
    "city",
    "day",
    "hour",
    "down_mbps",
    "up_mbps",
    "rtt_ms",
    "loaded_rtt_ms",
    "access",
    "band",
    "rssi_dbm",
    "memory_gb",
    "truth_tier",
];

/// Write `ms` as CSV: a header row naming the 16 columns, then one
/// `\n`-terminated line per measurement. Numbers use their `Display` text; missing
/// memory and non-WiFi RSSI are `NaN`, a missing truth tier is `-1`, and
/// non-WiFi rows have an empty band. No label contains `,`, `"` or a
/// newline, so cells are never quoted.
pub fn write_csv(ms: &[Measurement], out: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(out, "{}", CSV_HEADER.join(","))?;
    for m in ms {
        let (access, band, rssi) = match m.access {
            Access::Wifi { band, rssi_dbm } => ("wifi", band.label(), rssi_dbm),
            Access::Ethernet => ("ethernet", "", f64::NAN),
            Access::Unknown => ("unknown", "", f64::NAN),
        };
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            m.id,
            m.user_id,
            m.platform.label(),
            m.vendor().label(),
            m.city,
            m.day,
            m.hour,
            m.down_mbps,
            m.up_mbps,
            m.rtt_ms,
            m.loaded_rtt_ms,
            access,
            band,
            rssi,
            m.kernel_memory_gb.unwrap_or(f64::NAN),
            m.truth_tier.map_or(-1, |t| t as i64),
        )?;
    }
    Ok(())
}

/// Month index 0..12 for a 0-based day of year (non-leap year). Shared
/// between [`Measurement::month`] and the store's derived month column.
pub fn month_of_day(day: u16) -> usize {
    // Cumulative days at the start of each month.
    const STARTS: [u16; 13] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365];
    let d = day.min(364);
    STARTS.iter().rposition(|&s| s <= d).expect("day 0 matches month 0")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Measurement {
        Measurement {
            id: 1,
            user_id: 10,
            platform: Platform::AndroidApp,
            city: 0,
            day: 0,
            hour: 13,
            down_mbps: 95.0,
            up_mbps: 5.1,
            rtt_ms: 14.0,
            loaded_rtt_ms: 21.0,
            access: Access::Wifi { band: Band::G5, rssi_dbm: -55.0 },
            kernel_memory_gb: Some(7.2),
            truth_tier: Some(2),
        }
    }

    #[test]
    fn vendor_mapping() {
        assert_eq!(Platform::NdtWeb.vendor(), Vendor::MLab);
        assert_eq!(Platform::Web.vendor(), Vendor::Ookla);
        assert_eq!(base().vendor(), Vendor::Ookla);
        assert_eq!(Vendor::MLab.label(), "M-Lab");
    }

    #[test]
    fn device_metadata_availability() {
        assert!(Platform::AndroidApp.has_device_metadata());
        assert!(Platform::DesktopEthernetApp.has_device_metadata());
        assert!(!Platform::Web.has_device_metadata());
        assert!(!Platform::NdtWeb.has_device_metadata());
    }

    #[test]
    fn time_bins() {
        let mut m = base();
        let cases = [(0u8, 0usize), (5, 0), (6, 1), (11, 1), (12, 2), (17, 2), (18, 3), (23, 3)];
        for (hour, bin) in cases {
            m.hour = hour;
            assert_eq!(m.time_bin(), bin, "hour {hour}");
        }
        assert_eq!(Measurement::time_bin_label(0), "00-06");
        assert_eq!(Measurement::time_bin_label(3), "18-24");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time bin must be 0..4")]
    fn bad_time_bin_label_asserts_in_debug() {
        let _ = Measurement::time_bin_label(4);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn bad_time_bin_label_clamps_in_release() {
        assert_eq!(Measurement::time_bin_label(4), "18-24");
        assert_eq!(Measurement::time_bin_label(usize::MAX), "18-24");
    }

    #[test]
    fn month_from_day_of_year() {
        let mut m = base();
        m.day = 0;
        assert_eq!(m.month(), 0); // Jan 1
        m.day = 30;
        assert_eq!(m.month(), 0); // Jan 31
        m.day = 31;
        assert_eq!(m.month(), 1); // Feb 1
        m.day = 364;
        assert_eq!(m.month(), 11); // Dec 31
        m.day = 400; // clamped
        assert_eq!(m.month(), 11);
    }

    #[test]
    fn memory_class_binning() {
        let mut m = base();
        assert_eq!(m.memory_class(), Some(MemoryClass::Over6G));
        m.kernel_memory_gb = None;
        assert_eq!(m.memory_class(), None);
    }

    #[test]
    fn access_helpers() {
        assert!(base().access.is_wifi());
        assert!(!Access::Ethernet.is_wifi());
        assert!(!Access::Unknown.is_wifi());
    }

    #[test]
    fn measurement_serializes_to_json() {
        let json = serde_json::to_string(&base()).unwrap();
        assert!(json.contains("\"down_mbps\":95.0"));
        assert!(json.contains("AndroidApp"));
        assert!(json.contains("rssi_dbm"));
    }

    fn csv(ms: &[Measurement]) -> String {
        let mut out = Vec::new();
        write_csv(ms, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn csv_header_names_sixteen_columns() {
        let text = csv(&[base()]);
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(header, CSV_HEADER);
        let row: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(row.len(), 16);
        assert_eq!(
            row,
            [
                "1",
                "10",
                "Android-App",
                "Ookla",
                "0",
                "0",
                "13",
                "95",
                "5.1",
                "14",
                "21",
                "wifi",
                "5 GHz",
                "-55",
                "7.2",
                "2"
            ]
        );
        assert!(text.ends_with("\n"));
    }

    #[test]
    fn csv_marks_missing_metadata() {
        let mut web = base();
        web.platform = Platform::NdtWeb;
        web.access = Access::Unknown;
        web.kernel_memory_gb = None;
        web.truth_tier = None;
        let mut wired = base();
        wired.access = Access::Ethernet;
        let text = csv(&[web, wired]);
        let rows: Vec<Vec<&str>> = text.lines().skip(1).map(|l| l.split(',').collect()).collect();
        assert_eq!(rows[0][3..4], ["M-Lab"]);
        assert_eq!(rows[0][11..], ["unknown", "", "NaN", "NaN", "-1"]);
        assert_eq!(rows[1][11..14], ["ethernet", "", "NaN"]);
    }

    #[test]
    fn csv_of_no_rows_is_the_header_alone() {
        assert_eq!(csv(&[]), format!("{}\n", CSV_HEADER.join(",")));
    }

    #[test]
    fn csv_labels_need_no_quoting() {
        let platforms = Platform::all().into_iter().chain([Platform::MbaUnit]);
        let labels = platforms
            .flat_map(|p| [p.label(), p.vendor().label()])
            .chain([Band::G2_4.label(), Band::G5.label()]);
        for label in labels {
            assert!(!label.contains([',', '"', '\n']), "{label:?} would need CSV quoting");
        }
    }

    #[test]
    fn platform_labels_match_paper() {
        assert_eq!(Platform::all().len(), 6);
        assert_eq!(Platform::AndroidApp.label(), "Android-App");
        assert_eq!(Platform::NdtWeb.label(), "NDT-Web");
    }
}
