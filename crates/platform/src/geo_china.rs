//! Embedded gazetteer of Chinese provinces and major cities.
//!
//! The paper's crowd-sourced campaign covered 20 provinces and 41 cities;
//! NEP itself deploys >500 sites country-wide. This table carries 137 major
//! cities across 31 province-level divisions with approximate WGS-84
//! coordinates and population weights (millions, rounded), enough to
//! synthesize realistic deployments and user populations. Coordinates are
//! city centroids accurate to ~0.1°, which is far below the backbone
//! latency granularity (~0.02 ms/km).

use edgescope_net::geo::GeoPoint;

/// A city entry: name, province, coordinates, population weight (millions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct City {
    /// City name (unique within the gazetteer).
    pub name: &'static str,
    /// Province-level division.
    pub province: &'static str,
    /// Latitude in degrees.
    pub lat_deg: f64,
    /// Longitude in degrees.
    pub lon_deg: f64,
    /// Metro population in millions; used as sampling weight for both site
    /// density and user recruitment.
    pub population_m: f64,
}

impl City {
    /// The city's coordinates as a [`GeoPoint`].
    pub fn geo(&self) -> GeoPoint {
        GeoPoint::new(self.lat_deg, self.lon_deg)
    }
}

/// The embedded city table (137 cities, 31 provinces).
pub const CITIES: &[City] = &[
    City {
        name: "Beijing",
        province: "Beijing",
        lat_deg: 39.90,
        lon_deg: 116.40,
        population_m: 21.5,
    },
    City {
        name: "Shanghai",
        province: "Shanghai",
        lat_deg: 31.23,
        lon_deg: 121.47,
        population_m: 24.9,
    },
    City {
        name: "Tianjin",
        province: "Tianjin",
        lat_deg: 39.13,
        lon_deg: 117.20,
        population_m: 13.9,
    },
    City {
        name: "Chongqing",
        province: "Chongqing",
        lat_deg: 29.56,
        lon_deg: 106.55,
        population_m: 32.1,
    },
    City {
        name: "Guangzhou",
        province: "Guangdong",
        lat_deg: 23.13,
        lon_deg: 113.26,
        population_m: 18.7,
    },
    City {
        name: "Shenzhen",
        province: "Guangdong",
        lat_deg: 22.54,
        lon_deg: 114.06,
        population_m: 17.6,
    },
    City {
        name: "Dongguan",
        province: "Guangdong",
        lat_deg: 23.02,
        lon_deg: 113.75,
        population_m: 10.5,
    },
    City {
        name: "Foshan",
        province: "Guangdong",
        lat_deg: 23.02,
        lon_deg: 113.12,
        population_m: 9.5,
    },
    City {
        name: "Zhuhai",
        province: "Guangdong",
        lat_deg: 22.27,
        lon_deg: 113.58,
        population_m: 2.4,
    },
    City {
        name: "Shantou",
        province: "Guangdong",
        lat_deg: 23.35,
        lon_deg: 116.68,
        population_m: 5.5,
    },
    City {
        name: "Zhanjiang",
        province: "Guangdong",
        lat_deg: 21.27,
        lon_deg: 110.36,
        population_m: 7.0,
    },
    City {
        name: "Chengdu",
        province: "Sichuan",
        lat_deg: 30.57,
        lon_deg: 104.07,
        population_m: 20.9,
    },
    City {
        name: "Mianyang",
        province: "Sichuan",
        lat_deg: 31.47,
        lon_deg: 104.68,
        population_m: 4.9,
    },
    City {
        name: "Yibin",
        province: "Sichuan",
        lat_deg: 28.77,
        lon_deg: 104.62,
        population_m: 4.6,
    },
    City {
        name: "Hangzhou",
        province: "Zhejiang",
        lat_deg: 30.27,
        lon_deg: 120.15,
        population_m: 12.2,
    },
    City {
        name: "Ningbo",
        province: "Zhejiang",
        lat_deg: 29.87,
        lon_deg: 121.54,
        population_m: 9.4,
    },
    City {
        name: "Wenzhou",
        province: "Zhejiang",
        lat_deg: 28.00,
        lon_deg: 120.70,
        population_m: 9.6,
    },
    City {
        name: "Jinhua",
        province: "Zhejiang",
        lat_deg: 29.08,
        lon_deg: 119.65,
        population_m: 7.1,
    },
    City {
        name: "Nanjing",
        province: "Jiangsu",
        lat_deg: 32.06,
        lon_deg: 118.80,
        population_m: 9.3,
    },
    City {
        name: "Suzhou",
        province: "Jiangsu",
        lat_deg: 31.30,
        lon_deg: 120.62,
        population_m: 12.7,
    },
    City {
        name: "Wuxi",
        province: "Jiangsu",
        lat_deg: 31.49,
        lon_deg: 120.31,
        population_m: 7.5,
    },
    City {
        name: "Xuzhou",
        province: "Jiangsu",
        lat_deg: 34.26,
        lon_deg: 117.19,
        population_m: 9.0,
    },
    City {
        name: "Nantong",
        province: "Jiangsu",
        lat_deg: 31.98,
        lon_deg: 120.89,
        population_m: 7.7,
    },
    City {
        name: "Wuhan",
        province: "Hubei",
        lat_deg: 30.59,
        lon_deg: 114.31,
        population_m: 12.3,
    },
    City {
        name: "Yichang",
        province: "Hubei",
        lat_deg: 30.69,
        lon_deg: 111.29,
        population_m: 4.0,
    },
    City {
        name: "Xiangyang",
        province: "Hubei",
        lat_deg: 32.01,
        lon_deg: 112.12,
        population_m: 5.3,
    },
    City {
        name: "Xi'an",
        province: "Shaanxi",
        lat_deg: 34.34,
        lon_deg: 108.94,
        population_m: 12.9,
    },
    City {
        name: "Baoji",
        province: "Shaanxi",
        lat_deg: 34.36,
        lon_deg: 107.24,
        population_m: 3.3,
    },
    City {
        name: "Zhengzhou",
        province: "Henan",
        lat_deg: 34.75,
        lon_deg: 113.63,
        population_m: 12.6,
    },
    City {
        name: "Luoyang",
        province: "Henan",
        lat_deg: 34.62,
        lon_deg: 112.45,
        population_m: 7.0,
    },
    City {
        name: "Nanyang",
        province: "Henan",
        lat_deg: 32.99,
        lon_deg: 112.53,
        population_m: 9.7,
    },
    City {
        name: "Jinan",
        province: "Shandong",
        lat_deg: 36.65,
        lon_deg: 117.12,
        population_m: 9.2,
    },
    City {
        name: "Qingdao",
        province: "Shandong",
        lat_deg: 36.07,
        lon_deg: 120.38,
        population_m: 10.1,
    },
    City {
        name: "Yantai",
        province: "Shandong",
        lat_deg: 37.46,
        lon_deg: 121.45,
        population_m: 7.1,
    },
    City {
        name: "Linyi",
        province: "Shandong",
        lat_deg: 35.10,
        lon_deg: 118.36,
        population_m: 11.0,
    },
    City {
        name: "Weifang",
        province: "Shandong",
        lat_deg: 36.71,
        lon_deg: 119.16,
        population_m: 9.4,
    },
    City {
        name: "Shijiazhuang",
        province: "Hebei",
        lat_deg: 38.04,
        lon_deg: 114.51,
        population_m: 11.2,
    },
    City {
        name: "Tangshan",
        province: "Hebei",
        lat_deg: 39.63,
        lon_deg: 118.18,
        population_m: 7.7,
    },
    City {
        name: "Baoding",
        province: "Hebei",
        lat_deg: 38.87,
        lon_deg: 115.46,
        population_m: 11.5,
    },
    City {
        name: "Handan",
        province: "Hebei",
        lat_deg: 36.61,
        lon_deg: 114.49,
        population_m: 9.4,
    },
    City {
        name: "Shenyang",
        province: "Liaoning",
        lat_deg: 41.80,
        lon_deg: 123.43,
        population_m: 9.1,
    },
    City {
        name: "Dalian",
        province: "Liaoning",
        lat_deg: 38.91,
        lon_deg: 121.61,
        population_m: 7.5,
    },
    City {
        name: "Changchun",
        province: "Jilin",
        lat_deg: 43.82,
        lon_deg: 125.32,
        population_m: 9.1,
    },
    City {
        name: "Jilin",
        province: "Jilin",
        lat_deg: 43.84,
        lon_deg: 126.56,
        population_m: 3.6,
    },
    City {
        name: "Harbin",
        province: "Heilongjiang",
        lat_deg: 45.80,
        lon_deg: 126.53,
        population_m: 10.0,
    },
    City {
        name: "Daqing",
        province: "Heilongjiang",
        lat_deg: 46.59,
        lon_deg: 125.10,
        population_m: 2.8,
    },
    City {
        name: "Changsha",
        province: "Hunan",
        lat_deg: 28.23,
        lon_deg: 112.94,
        population_m: 10.0,
    },
    City {
        name: "Hengyang",
        province: "Hunan",
        lat_deg: 26.89,
        lon_deg: 112.57,
        population_m: 6.6,
    },
    City {
        name: "Nanchang",
        province: "Jiangxi",
        lat_deg: 28.68,
        lon_deg: 115.86,
        population_m: 6.3,
    },
    City {
        name: "Ganzhou",
        province: "Jiangxi",
        lat_deg: 25.83,
        lon_deg: 114.93,
        population_m: 9.0,
    },
    City {
        name: "Fuzhou",
        province: "Fujian",
        lat_deg: 26.07,
        lon_deg: 119.30,
        population_m: 8.3,
    },
    City {
        name: "Xiamen",
        province: "Fujian",
        lat_deg: 24.48,
        lon_deg: 118.09,
        population_m: 5.2,
    },
    City {
        name: "Quanzhou",
        province: "Fujian",
        lat_deg: 24.87,
        lon_deg: 118.68,
        population_m: 8.8,
    },
    City {
        name: "Hefei",
        province: "Anhui",
        lat_deg: 31.82,
        lon_deg: 117.23,
        population_m: 9.4,
    },
    City {
        name: "Wuhu",
        province: "Anhui",
        lat_deg: 31.35,
        lon_deg: 118.43,
        population_m: 3.6,
    },
    City {
        name: "Fuyang",
        province: "Anhui",
        lat_deg: 32.89,
        lon_deg: 115.81,
        population_m: 8.2,
    },
    City {
        name: "Kunming",
        province: "Yunnan",
        lat_deg: 24.88,
        lon_deg: 102.83,
        population_m: 8.5,
    },
    City {
        name: "Qujing",
        province: "Yunnan",
        lat_deg: 25.49,
        lon_deg: 103.80,
        population_m: 5.8,
    },
    City {
        name: "Guiyang",
        province: "Guizhou",
        lat_deg: 26.65,
        lon_deg: 106.63,
        population_m: 6.0,
    },
    City {
        name: "Zunyi",
        province: "Guizhou",
        lat_deg: 27.73,
        lon_deg: 107.03,
        population_m: 6.6,
    },
    City {
        name: "Nanning",
        province: "Guangxi",
        lat_deg: 22.82,
        lon_deg: 108.32,
        population_m: 8.7,
    },
    City {
        name: "Liuzhou",
        province: "Guangxi",
        lat_deg: 24.33,
        lon_deg: 109.43,
        population_m: 4.2,
    },
    City {
        name: "Guilin",
        province: "Guangxi",
        lat_deg: 25.27,
        lon_deg: 110.29,
        population_m: 4.9,
    },
    City {
        name: "Taiyuan",
        province: "Shanxi",
        lat_deg: 37.87,
        lon_deg: 112.55,
        population_m: 5.3,
    },
    City {
        name: "Datong",
        province: "Shanxi",
        lat_deg: 40.08,
        lon_deg: 113.30,
        population_m: 3.1,
    },
    City {
        name: "Hohhot",
        province: "Inner Mongolia",
        lat_deg: 40.84,
        lon_deg: 111.75,
        population_m: 3.4,
    },
    City {
        name: "Baotou",
        province: "Inner Mongolia",
        lat_deg: 40.66,
        lon_deg: 109.84,
        population_m: 2.7,
    },
    City {
        name: "Lanzhou",
        province: "Gansu",
        lat_deg: 36.06,
        lon_deg: 103.83,
        population_m: 4.4,
    },
    City {
        name: "Xining",
        province: "Qinghai",
        lat_deg: 36.62,
        lon_deg: 101.78,
        population_m: 2.5,
    },
    City {
        name: "Yinchuan",
        province: "Ningxia",
        lat_deg: 38.49,
        lon_deg: 106.23,
        population_m: 2.9,
    },
    City {
        name: "Urumqi",
        province: "Xinjiang",
        lat_deg: 43.83,
        lon_deg: 87.62,
        population_m: 4.1,
    },
    City {
        name: "Lhasa",
        province: "Tibet",
        lat_deg: 29.65,
        lon_deg: 91.14,
        population_m: 0.9,
    },
    City {
        name: "Haikou",
        province: "Hainan",
        lat_deg: 20.04,
        lon_deg: 110.34,
        population_m: 2.9,
    },
    City {
        name: "Sanya",
        province: "Hainan",
        lat_deg: 18.25,
        lon_deg: 109.51,
        population_m: 1.0,
    },
    City {
        name: "Changzhou",
        province: "Jiangsu",
        lat_deg: 31.81,
        lon_deg: 119.97,
        population_m: 5.3,
    },
    City {
        name: "Shaoxing",
        province: "Zhejiang",
        lat_deg: 30.00,
        lon_deg: 120.58,
        population_m: 5.3,
    },
    City {
        name: "Zibo",
        province: "Shandong",
        lat_deg: 36.81,
        lon_deg: 118.05,
        population_m: 4.7,
    },
    City {
        name: "Anshan",
        province: "Liaoning",
        lat_deg: 41.11,
        lon_deg: 122.99,
        population_m: 3.3,
    },
    City {
        name: "Taizhou-ZJ",
        province: "Zhejiang",
        lat_deg: 28.66,
        lon_deg: 121.42,
        population_m: 6.6,
    },
    City {
        name: "Huzhou",
        province: "Zhejiang",
        lat_deg: 30.89,
        lon_deg: 120.09,
        population_m: 3.4,
    },
    City {
        name: "Jiaxing",
        province: "Zhejiang",
        lat_deg: 30.75,
        lon_deg: 120.76,
        population_m: 5.4,
    },
    City {
        name: "Yangzhou",
        province: "Jiangsu",
        lat_deg: 32.39,
        lon_deg: 119.41,
        population_m: 4.6,
    },
    City {
        name: "Yancheng",
        province: "Jiangsu",
        lat_deg: 33.35,
        lon_deg: 120.16,
        population_m: 6.7,
    },
    City {
        name: "Huai'an",
        province: "Jiangsu",
        lat_deg: 33.61,
        lon_deg: 119.02,
        population_m: 4.6,
    },
    City {
        name: "Lianyungang",
        province: "Jiangsu",
        lat_deg: 34.60,
        lon_deg: 119.22,
        population_m: 4.6,
    },
    City {
        name: "Zhenjiang",
        province: "Jiangsu",
        lat_deg: 32.19,
        lon_deg: 119.43,
        population_m: 3.2,
    },
    City {
        name: "Huizhou",
        province: "Guangdong",
        lat_deg: 23.11,
        lon_deg: 114.42,
        population_m: 6.0,
    },
    City {
        name: "Jiangmen",
        province: "Guangdong",
        lat_deg: 22.58,
        lon_deg: 113.08,
        population_m: 4.8,
    },
    City {
        name: "Zhaoqing",
        province: "Guangdong",
        lat_deg: 23.05,
        lon_deg: 112.47,
        population_m: 4.1,
    },
    City {
        name: "Maoming",
        province: "Guangdong",
        lat_deg: 21.66,
        lon_deg: 110.92,
        population_m: 6.2,
    },
    City {
        name: "Meizhou",
        province: "Guangdong",
        lat_deg: 24.29,
        lon_deg: 116.12,
        population_m: 3.9,
    },
    City {
        name: "Jieyang",
        province: "Guangdong",
        lat_deg: 23.55,
        lon_deg: 116.37,
        population_m: 5.6,
    },
    City {
        name: "Qingyuan",
        province: "Guangdong",
        lat_deg: 23.68,
        lon_deg: 113.06,
        population_m: 4.0,
    },
    City {
        name: "Luzhou",
        province: "Sichuan",
        lat_deg: 28.87,
        lon_deg: 105.44,
        population_m: 4.3,
    },
    City {
        name: "Nanchong",
        province: "Sichuan",
        lat_deg: 30.84,
        lon_deg: 106.08,
        population_m: 5.6,
    },
    City {
        name: "Dazhou",
        province: "Sichuan",
        lat_deg: 31.21,
        lon_deg: 107.47,
        population_m: 5.4,
    },
    City {
        name: "Leshan",
        province: "Sichuan",
        lat_deg: 29.55,
        lon_deg: 103.77,
        population_m: 3.2,
    },
    City {
        name: "Jingzhou",
        province: "Hubei",
        lat_deg: 30.33,
        lon_deg: 112.24,
        population_m: 5.2,
    },
    City {
        name: "Huanggang",
        province: "Hubei",
        lat_deg: 30.45,
        lon_deg: 114.87,
        population_m: 5.9,
    },
    City {
        name: "Shiyan",
        province: "Hubei",
        lat_deg: 32.63,
        lon_deg: 110.80,
        population_m: 3.2,
    },
    City {
        name: "Zhuzhou",
        province: "Hunan",
        lat_deg: 27.83,
        lon_deg: 113.13,
        population_m: 3.9,
    },
    City {
        name: "Yueyang",
        province: "Hunan",
        lat_deg: 29.36,
        lon_deg: 113.13,
        population_m: 5.1,
    },
    City {
        name: "Changde",
        province: "Hunan",
        lat_deg: 29.03,
        lon_deg: 111.70,
        population_m: 5.3,
    },
    City {
        name: "Chenzhou",
        province: "Hunan",
        lat_deg: 25.79,
        lon_deg: 113.02,
        population_m: 4.7,
    },
    City {
        name: "Xinyang",
        province: "Henan",
        lat_deg: 32.15,
        lon_deg: 114.09,
        population_m: 6.2,
    },
    City {
        name: "Anyang",
        province: "Henan",
        lat_deg: 36.10,
        lon_deg: 114.39,
        population_m: 5.5,
    },
    City {
        name: "Xuchang",
        province: "Henan",
        lat_deg: 34.04,
        lon_deg: 113.85,
        population_m: 4.4,
    },
    City {
        name: "Shangqiu",
        province: "Henan",
        lat_deg: 34.41,
        lon_deg: 115.66,
        population_m: 7.8,
    },
    City {
        name: "Zhoukou",
        province: "Henan",
        lat_deg: 33.63,
        lon_deg: 114.70,
        population_m: 9.0,
    },
    City {
        name: "Jining",
        province: "Shandong",
        lat_deg: 35.42,
        lon_deg: 116.59,
        population_m: 8.4,
    },
    City {
        name: "Heze",
        province: "Shandong",
        lat_deg: 35.23,
        lon_deg: 115.48,
        population_m: 8.8,
    },
    City {
        name: "Taian",
        province: "Shandong",
        lat_deg: 36.20,
        lon_deg: 117.09,
        population_m: 5.5,
    },
    City {
        name: "Dezhou",
        province: "Shandong",
        lat_deg: 37.43,
        lon_deg: 116.36,
        population_m: 5.6,
    },
    City {
        name: "Cangzhou",
        province: "Hebei",
        lat_deg: 38.30,
        lon_deg: 116.84,
        population_m: 7.3,
    },
    City {
        name: "Xingtai",
        province: "Hebei",
        lat_deg: 37.07,
        lon_deg: 114.50,
        population_m: 7.1,
    },
    City {
        name: "Langfang",
        province: "Hebei",
        lat_deg: 39.52,
        lon_deg: 116.70,
        population_m: 5.5,
    },
    City {
        name: "Qinhuangdao",
        province: "Hebei",
        lat_deg: 39.94,
        lon_deg: 119.60,
        population_m: 3.1,
    },
    City {
        name: "Fushun",
        province: "Liaoning",
        lat_deg: 41.88,
        lon_deg: 123.96,
        population_m: 2.1,
    },
    City {
        name: "Jinzhou",
        province: "Liaoning",
        lat_deg: 41.10,
        lon_deg: 121.13,
        population_m: 3.0,
    },
    City {
        name: "Qiqihar",
        province: "Heilongjiang",
        lat_deg: 47.35,
        lon_deg: 123.92,
        population_m: 5.3,
    },
    City {
        name: "Baoshan",
        province: "Yunnan",
        lat_deg: 25.11,
        lon_deg: 99.16,
        population_m: 2.6,
    },
    City {
        name: "Dali",
        province: "Yunnan",
        lat_deg: 25.60,
        lon_deg: 100.27,
        population_m: 3.3,
    },
    City {
        name: "Bengbu",
        province: "Anhui",
        lat_deg: 32.92,
        lon_deg: 117.39,
        population_m: 3.3,
    },
    City {
        name: "Anqing",
        province: "Anhui",
        lat_deg: 30.54,
        lon_deg: 117.06,
        population_m: 4.2,
    },
    City {
        name: "Longyan",
        province: "Fujian",
        lat_deg: 25.08,
        lon_deg: 117.02,
        population_m: 2.7,
    },
    City {
        name: "Nanping",
        province: "Fujian",
        lat_deg: 26.64,
        lon_deg: 118.18,
        population_m: 2.7,
    },
    City {
        name: "Shangrao",
        province: "Jiangxi",
        lat_deg: 28.45,
        lon_deg: 117.94,
        population_m: 6.5,
    },
    City {
        name: "Jiujiang",
        province: "Jiangxi",
        lat_deg: 29.71,
        lon_deg: 116.00,
        population_m: 4.6,
    },
    City {
        name: "Yulin-GX",
        province: "Guangxi",
        lat_deg: 22.63,
        lon_deg: 110.17,
        population_m: 5.8,
    },
    City {
        name: "Wuzhou",
        province: "Guangxi",
        lat_deg: 23.48,
        lon_deg: 111.28,
        population_m: 2.8,
    },
    City {
        name: "Yan'an",
        province: "Shaanxi",
        lat_deg: 36.59,
        lon_deg: 109.49,
        population_m: 2.3,
    },
    City {
        name: "Hanzhong",
        province: "Shaanxi",
        lat_deg: 33.07,
        lon_deg: 107.02,
        population_m: 3.2,
    },
    City {
        name: "Changzhi",
        province: "Shanxi",
        lat_deg: 36.20,
        lon_deg: 113.12,
        population_m: 3.2,
    },
    City {
        name: "Linfen",
        province: "Shanxi",
        lat_deg: 36.08,
        lon_deg: 111.52,
        population_m: 4.0,
    },
    City {
        name: "Chifeng",
        province: "Inner Mongolia",
        lat_deg: 42.26,
        lon_deg: 118.89,
        population_m: 4.0,
    },
    City {
        name: "Tianshui",
        province: "Gansu",
        lat_deg: 34.58,
        lon_deg: 105.72,
        population_m: 3.0,
    },
    City {
        name: "Anshun",
        province: "Guizhou",
        lat_deg: 26.25,
        lon_deg: 105.93,
        population_m: 2.8,
    },
];

/// Find a city by name; `None` if absent.
pub fn city_by_name(name: &str) -> Option<&'static City> {
    CITIES.iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_nonempty_and_valid() {
        assert!(CITIES.len() >= 70);
        for c in CITIES {
            // Constructing the GeoPoint validates the coordinates.
            let _ = c.geo();
            assert!(c.population_m > 0.0, "{} weight", c.name);
            assert!(!c.name.is_empty() && !c.province.is_empty());
        }
    }

    #[test]
    fn no_duplicate_city_names() {
        let mut names: Vec<&str> = CITIES.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CITIES.len());
    }

    #[test]
    fn province_coverage_spans_china() {
        // The paper's campaign reached 20 provinces; our gazetteer must
        // comfortably exceed that.
        let mut provinces: Vec<&str> = CITIES.iter().map(|c| c.province).collect();
        provinces.sort_unstable();
        provinces.dedup();
        assert!(provinces.len() >= 25, "{} provinces", provinces.len());
    }

    #[test]
    fn lookup_and_distance() {
        let bj = city_by_name("Beijing").unwrap();
        let gz = city_by_name("Guangzhou").unwrap();
        let d = bj.geo().distance_km(&gz.geo());
        assert!((d - 1890.0).abs() < 40.0, "got {d}");
        assert!(city_by_name("Atlantis").is_none());
    }

    #[test]
    fn guangdong_has_many_cities() {
        // Fig. 11 samples 11 sites from Guangdong; the gazetteer needs
        // enough cities there to host a dense deployment.
        assert!(CITIES.iter().filter(|c| c.province == "Guangdong").count() >= 5);
    }
}
